import gc
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
    try:
        status = main(list(argv))
    except SystemExit as exc:  # the parser refuses the command line
        status = exc.code
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
        status, out, _ = run(capsys, "bench", "number-arith", "--iters", "10000")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        scenario, iters, ns, baseline, ratio = lines[1].split(",")
        assert scenario == "number-arith" and int(iters) == 10000
        assert float(ns) > 0 and float(baseline) > 0
        assert float(ratio) == pytest.approx(float(ns) / float(baseline), rel=0.01, abs=0.001)

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

    def test_all_scenarios_run(self, capsys):
        scenarios = ("convert-same", "convert-narrowable", "number-arith", "number-arith-bare",
                     "span-index", "span-sort", "convert-checked", "format-render",
                     "number-construct", "number-compare", "span-write", "sort-forward",
                     "convert-f32", "layout-of", "span-bounds", "convert-to", "cast-f32", "span-iter",
                     "span-nested", "record-register", "convert-refused", "sort-bytes", "sort-ints",
                     "sort-wide", "sort-array", "sort-view", "sort-linked", "sort-array-compared",
                     "number-arith-f32", "number-compare-f32", "number-div")
        assert BENCH_SCENARIOS == scenarios
        for scenario in scenarios:
            iters = 200 if scenario in self.SORTS_4096 else 20000
            status, out, _ = run(capsys, "bench", scenario, "--iters", str(iters))
            assert status == 0 and out.splitlines()[0] == BENCH_CSV_HEADER
            [(name, row_iters, ns, baseline, ratio)] = [line.split(",") for line in out.splitlines()[1:]]
            assert (name, row_iters) == (scenario, str(iters))
            assert float(ns) >= 0 and float(baseline) > 0 and float(ratio) >= 0

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
            run_bench("number-arith", 1000)
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
            run_bench("number-arith", iters)

    def test_run_bench_times_one_round_of_each(self, monkeypatch):
        calls = []

        class ScriptedTimer:
            def __init__(self, stmt, setup, globals):
                self.stmt = stmt

            def timeit(self, number):
                calls.append(self.stmt)
                return {"x = a + b": 300, "x = p + q": 100}[self.stmt] * number / 1e9

        monkeypatch.setattr(cli.timeit, "Timer", ScriptedTimer)
        record = run_bench("number-arith", 1000)
        assert calls == ["x = a + b", "x = p + q"]
        assert record.scenario == "number-arith" and record.iters == 1000
        assert record.ns_per_op == pytest.approx(300) and record.baseline_ns_per_op == pytest.approx(100)

    def test_bad_iters(self, capsys):
        status, _, err = run(capsys, "bench", "number-arith", "--iters", "0")
        assert status == 2 and "iters" in err

    @pytest.mark.parametrize("repeat", ["0", "-2"])
    def test_bad_repeat(self, capsys, repeat):
        status, out, err = run(capsys, "bench", "number-arith", "--iters", "10", "--repeat", repeat)
        assert status == 2 and "repeat" in err and out == ""

    def test_repeat_rows_are_the_fastest_loop_and_the_median_ratio(self, capsys, monkeypatch):
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
        status, out, _ = run(capsys, "bench", "number-arith", "--iters", "1000", "--repeat", "3")
        assert status == 0
        # the fastest rounds are 200 and 100 ns; the per-round ratios are 2.4,
        # 2 and 2.5, so their median is neither min over min nor median over median
        assert out == BENCH_CSV_HEADER + "\nnumber-arith,1000,200.000,100.000,2.400\n"
        assert built == ["x = a + b", "x = p + q"]  # each timer is built once
        # each round times both once, and which runs first alternates
        assert calls == [("x = a + b", 1000), ("x = p + q", 1000), ("x = p + q", 1000), ("x = a + b", 1000),
                         ("x = a + b", 1000), ("x = p + q", 1000)]

    def test_all_runs_every_scenario_under_one_header(self, capsys):
        status, out, _ = run(capsys, "bench", "all", "--iters", "200", "--repeat", "2")
        assert status == 0
        lines = out.strip().splitlines()
        assert lines[0] == BENCH_CSV_HEADER
        rows = [line.split(",") for line in lines[1:]]
        assert [row[0] for row in rows] == list(BENCH_SCENARIOS)
        for _, iters, ns, baseline, ratio in rows:
            assert iters == "200" and float(ns) >= 0 and float(baseline) > 0 and float(ratio) > 0


SRC = str(Path(cli.__file__).resolve().parents[1])  # the directory holding this checked package


class TestBenchDiff:
    @pytest.mark.parametrize("argv", [("diff",), ("diff", SRC), ("diff", SRC, "nope"),
                                      ("diff", SRC, "span-sort", "all"), ("number-arith", "extra"),
                                      ("diff", SRC, "span-sort", "--iters", "0"),
                                      ("diff", SRC, "span-sort", "--repeat", "0"),
                                      ("diff", SRC, "span-sort", "--json", "{tmp}/diff.json"),
                                      ("diff", "no-such-tree", "span-sort"),
                                      ("diff", "{tmp}", "span-sort"),  # a tree whose import raises
                                      ("raw-arith",), ("number-arith", "--json", "{tmp}/bench.json")])
    def test_report_count_is_checked(self, capsys, tmp_path, argv):
        (tmp_path / "checked").mkdir()
        (tmp_path / "checked" / "__init__.py").write_text("raise RuntimeError('broken tree')\n", encoding="utf-8")
        status, out, _ = run(capsys, "bench", *(arg.replace("{tmp}", str(tmp_path)) for arg in argv))
        assert status == 2 and out == ""
        assert not (tmp_path / "diff.json").exists() and not (tmp_path / "bench.json").exists()


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
        status, out, err = run(capsys, "bench", "diff", SRC, "span-sort",
                               "--iters", "10", "--repeat", "4")
        assert status == 0 and err == ""
        assert calls == [("new", 10), ("old", 10), ("old", 10), ("new", 10)] * 2
        # the paired ratios are 0.9, 1.2, 1.0 and 0.8; two rounds are won
        assert out.splitlines() == [cli.BENCH_SRC_DIFF_CSV_HEADER, "span-sort,10,4,0.950,0.875,1.050,2"]

    def test_one_round_reports_its_one_ratio(self, capsys, monkeypatch):
        calls = []

        class ScriptedTimer:
            def __init__(self, stmt, setup, globals):
                self.tree = "new" if globals is vars(cli) else "old"

            def timeit(self, number):
                calls.append(self.tree)
                return {"new": 110, "old": 100}[self.tree] * number / 1e9

        monkeypatch.setattr(cli.timeit, "Timer", ScriptedTimer)
        status, out, err = run(capsys, "bench", "diff", SRC, "span-sort", "--iters", "10")
        assert status == 0 and err == ""
        assert calls == ["new", "old"]  # --repeat defaults to one round
        assert out.splitlines() == [cli.BENCH_SRC_DIFF_CSV_HEADER, "span-sort,10,1,1.100,1.100,1.100,0"]

    @pytest.mark.parametrize("cli_source, scenarios, problem", [
        (None, ["span-sort"], "No module named '_checked_old.cli'"),
        ("", ["span-sort"], "span-sort does not run on the tree in"),
        ("Span = list\ndef sort(span):\n    raise RuntimeError('no sort here')\n", ["span-sort"],
         "RuntimeError: no sort here"),
        # the first scenario runs on the old tree, the second does not
        ("I32 = None\ndef narrow_checker(source, target):\n    return None\n", ["convert-same", "span-sort"],
         "NameError: name 'sort' is not defined"),
    ])
    def test_a_tree_that_cannot_run_a_scenario_is_a_usage_error(self, capsys, tmp_path, cli_source, scenarios,
                                                                 problem):
        (tmp_path / "checked").mkdir()
        (tmp_path / "checked" / "__init__.py").write_text("", encoding="utf-8")
        if cli_source is not None:
            (tmp_path / "checked" / "cli.py").write_text(cli_source, encoding="utf-8")
        status, out, err = run(capsys, "bench", "diff", str(tmp_path), *scenarios, "--iters", "10")
        assert status == 2 and problem in err
        if cli_source is not None:  # the scenario, the tree and the exception
            assert f"span-sort does not run on the tree in {tmp_path}: " in err and "Error: " in err
        assert out == ""  # no header and no row of a scenario that ran: a redirected CSV is empty

    @pytest.mark.parametrize("init_source, problem", [("raise RuntimeError('broken tree')",
                                                       "RuntimeError: broken tree"),
                                                      ("def f(:\n", "SyntaxError: ")])
    def test_a_tree_that_raises_on_import_is_a_usage_error(self, capsys, tmp_path, init_source, problem):
        (tmp_path / "checked").mkdir()
        (tmp_path / "checked" / "__init__.py").write_text(init_source, encoding="utf-8")
        status, out, err = run(capsys, "bench", "diff", str(tmp_path), "span-sort", "--iters", "10")
        assert status == 2 and out == "" and problem in err and str(tmp_path) in err

    def test_a_tree_against_itself_reads_about_one(self, capsys):
        status, out, err = run(capsys, "bench", "diff", SRC, "span-sort", "sort-array-compared",
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
