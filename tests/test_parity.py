"""The comparison functions of tools/parity.py, on small in-memory outputs (no subprocess)."""

import importlib.util
import math
import sys
from pathlib import Path

import pytest

PATH = Path(__file__).resolve().parent.parent / "tools" / "parity.py"
_spec = importlib.util.spec_from_file_location("parity", PATH)
parity = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = parity  # its dataclass looks its module up there
_spec.loader.exec_module(parity)

HEADER = "alpha,f_av_quad,f_av_closed,discrepancy_flags\r\n"
OLD_CSV = HEADER + "0,0.5,0.5,\r\n0.5,0.625,nan,f_av\r\n"


def test_identical_csv_texts_keep_parity():
    diff = parity.compare_csv(OLD_CSV, OLD_CSV)
    assert diff.moves == {"alpha": 0.0, "f_av_quad": 0.0, "f_av_closed": 0.0}
    assert (diff.flags, diff.shape, diff.failed) == ([], [], False)


def test_csv_moves_are_read_per_column_against_the_tolerance():
    small = HEADER + "0,0.5000000000000004,0.5,\r\n0.5,0.625,nan,f_av\r\n"
    diff = parity.compare_csv(OLD_CSV, small)
    assert diff.worst == ("f_av_quad", pytest.approx(4e-16, rel=0.2))
    assert not diff.failed
    large = HEADER + "0,0.5,0.5,\r\n0.5,0.62500000000001,nan,f_av\r\n"
    diff = parity.compare_csv(OLD_CSV, large)
    assert diff.worst == ("f_av_quad", pytest.approx(1e-14, rel=0.2)) and not diff.failed
    larger = HEADER + "0,0.5,0.5,\r\n0.5,0.6250000000001,nan,f_av\r\n"
    assert parity.compare_csv(OLD_CSV, larger).failed


def test_csv_nan_against_a_number_and_a_changed_flag_break_parity():
    healed = HEADER + "0,0.5,0.5,\r\n0.5,0.625,0.625,\r\n"
    diff = parity.compare_csv(OLD_CSV, healed)
    assert diff.moves["f_av_closed"] == math.inf
    assert diff.flags == ["row 2 discrepancy_flags: 'f_av' -> ''"]
    assert diff.failed


def test_csv_header_and_row_count_changes_break_parity():
    assert parity.compare_csv(OLD_CSV, OLD_CSV.replace("f_av_closed", "f_a")).shape
    shorter = parity.compare_csv(OLD_CSV, HEADER + "0,0.5,0.5,\r\n")
    assert shorter.shape == ["2 rows -> 1 rows"] and shorter.failed


def test_json_leaves_fold_list_positions_and_read_null_as_nan():
    old = '[{"f": 0.5, "flags": "", "x": null}, {"f": 0.25, "flags": "f_a", "x": null}]'
    new = '[{"f": 0.5, "flags": "", "x": null}, {"f": 0.2500000000000001, "flags": "", "x": 1}]'
    diff = parity.compare_json(old, new)
    assert diff.moves["[].f"] == pytest.approx(1e-16, rel=0.5)
    assert diff.moves["[].x"] == math.inf
    assert diff.flags == ["[].flags: 'f_a' -> ''"]


def test_check_residuals_move_and_statuses_flag():
    old = ("ok    bloch round trip  residual 1.110e-16  (tol 1e-12)\n"
           "ok    povm positivity   residual 0.000e+00  (tol 1e-12)\n"
           "2/2 invariant suites passed\n")
    moved = old.replace("1.110e-16", "2.220e-16")
    diff = parity.compare_check(old, moved)
    assert diff.moves == {"bloch round trip": pytest.approx(1.11e-16)}
    assert len(diff.lines) == 1 and not diff.failed
    failing = old.replace("ok    povm positivity   residual 0.000e+00",
                          "FAIL  povm positivity   residual 1.000e-09")
    failing = failing.replace("2/2", "1/2")
    diff = parity.compare_check(old, failing)
    assert diff.flags[0] == "povm positivity: ok -> FAIL"
    assert diff.failed
