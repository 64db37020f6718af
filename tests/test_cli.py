import gc

import pytest

from checked.cli import BENCH_CSV_HEADER, BENCH_SCENARIOS, main, run_bench
from checked.demos import DEMO_NAMES, run_demo
from checked.narrowing import _CHECKERS, I32


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

    def test_all_scenarios_run(self):
        scenarios = ("convert-same", "convert-narrowable", "number-arith", "raw-arith",
                     "span-index", "span-sort", "convert-checked", "format-render",
                     "number-construct")
        assert BENCH_SCENARIOS == scenarios
        for scenario in scenarios:
            record = run_bench(scenario, 20000)
            assert record.iters == 20000
            assert record.ns_per_op >= 0 and record.baseline_ns_per_op > 0

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
        monkeypatch.setitem(_CHECKERS, (I32, I32), lambda value: False)
        with pytest.raises(RuntimeError, match="per-value test"):
            run_bench("convert-same", 1000)

    def test_bad_iters(self, capsys):
        status, _, err = run(capsys, "bench", "raw-arith", "--iters", "0")
        assert status == 2 and "iters" in err


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
