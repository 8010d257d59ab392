import csv
import dataclasses
import io
import json
import math
import os
import runpy
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import spinclone.cli as cli_module
import spinclone.cloner as cloner_module
import spinclone.fidelity as fidelity_module
import spinclone.linalg as linalg_module
import spinclone.measurement as measurement_module
from spinclone.cli import SWEEP_COLUMNS, build_parser, main, run_checks
from spinclone.cloner import NaimarkBasis


def run(capsys, argv):
    code = main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


# ----------------------------------------------------------------------
# check

def test_check_passes(capsys):
    code, out, _ = run(capsys, ["check", "--trials", "25", "--grid", "5"])
    assert code == 0
    assert "povm completeness" in out
    assert "FAIL" not in out


def test_check_detects_injected_sign_error(capsys, monkeypatch):
    true_basis = cloner_module.naimark_basis

    def corrupted(g):
        basis = true_basis(g)
        bad = basis.pm.copy()
        bad[0] = -bad[0]
        return NaimarkBasis(basis.pp, bad, basis.mp, basis.mm)

    monkeypatch.setattr(cloner_module, "naimark_basis", corrupted)
    code, out, _ = run(capsys, ["check", "--trials", "10", "--grid", "4"])
    assert code == 1
    assert any("FAIL" in line and "dilation orthonormality" in line for line in out.splitlines())


CHECK_SUITES = [
    ("pauli square is identity", 1e-12),
    ("spin eigenstates orthonormal eigenpairs", 1e-12),
    ("bloch round trip", 1e-12),
    ("partial trace preserves trace", 1e-12),
    ("povm completeness", 1e-12),
    ("povm positivity", 1e-12),
    ("saturation at maximal sharpness", 1e-9),
    ("marginal unbiasedness", 1e-10),
    ("povm rank-one form", 1e-12),
    ("dilation orthonormality", 1e-12),
    ("dilation reproduces born probabilities", 1e-10),
    ("cloning unitary unitarity", 1e-12),
    ("statistics equivalence across schemes", 1e-10),
    ("bloch component transfer", 1e-10),
    ("single-clone closed forms vs quadrature", 1e-9),
    ("cloner dominates measure-and-prepare", 1e-10),
]


def test_check_suites_and_tolerances():
    results = run_checks(trials=5, grid=3)
    assert [(r.name, r.tolerance) for r in results] == CHECK_SUITES
    assert all(r.passed and r.note == "" for r in results)


@pytest.mark.parametrize("arg,value", [("trials", 0), ("trials", -5), ("grid", 0), ("grid", -1),
                                       ("seed", -1)])
def test_run_checks_rejects_empty_sample_sets(arg, value):
    # An empty sample set would pass its suites vacuously at residual 0; a
    # negative seed would fail inside numpy with a message that names no input.
    low = 0 if arg == "seed" else 1
    with pytest.raises(ValueError, match=f"^{arg} must be an integer >= {low}"):
        run_checks(**{"trials": 5, "grid": 3, arg: value})


def _times(factor):
    """Corrupt a function by scaling its result."""
    def corrupt(fn):
        return lambda *args, **kwargs: fn(*args, **kwargs) * factor
    return corrupt


def _povm_pp_scaled(fn):
    def build(g):
        povm = fn(g)
        return dataclasses.replace(povm, pp=povm.pp * 1.01)
    return build


def _cloner_loses_to_measurement(fn):
    def reports(geometries, *args, **kwargs):
        return [dataclasses.replace(rep, f_m_quad=rep.f_av_quad + 1e-6)
                for rep in fn(geometries, *args, **kwargs)]
    return reports


def _single_clone_closed_form_shifted(fn):
    def reports(geometries, *args, **kwargs):
        return [dataclasses.replace(rep, f_a_closed=rep.f_a_closed + 1e-8)
                for rep in fn(geometries, *args, **kwargs)]
    return reports


@pytest.mark.parametrize("module,name,corrupt,suite", [
    (linalg_module, "partial_trace", _times(1.01), "partial trace preserves trace"),
    (measurement_module, "build_povm", _povm_pp_scaled, "povm completeness"),
    (cloner_module, "clone_unitary", _times(1.01), "cloning unitary unitarity"),
    (fidelity_module, "fidelity_reports", _cloner_loses_to_measurement,
     "cloner dominates measure-and-prepare"),
    (fidelity_module, "fidelity_reports", _single_clone_closed_form_shifted,
     "single-clone closed forms vs quadrature"),
    # a NaN residual must fail, not be passed over by max()
    (linalg_module, "partial_trace", _times(np.nan), "partial trace preserves trace"),
], ids=["partial_trace", "build_povm", "clone_unitary", "fidelity_reports", "f_a_closed",
        "partial_trace_nan"])
def test_check_detects_injected_fault(capsys, monkeypatch, module, name, corrupt, suite):
    monkeypatch.setattr(module, name, corrupt(getattr(module, name)))
    code, out, _ = run(capsys, ["check", "--trials", "10", "--grid", "4"])
    assert code == 1
    [line] = [line for line in out.splitlines() if suite in line]
    assert line.startswith("FAIL")


def test_check_reports_a_raising_suite(capsys, monkeypatch):
    def boom(povm):
        raise RuntimeError("boom")

    monkeypatch.setattr(measurement_module, "marginal_operators", boom)
    code, out, _ = run(capsys, ["check", "--trials", "10", "--grid", "4"])
    assert code == 1
    lines = out.splitlines()
    assert len(lines) == len(CHECK_SUITES) + 1
    assert lines[-1] == f"{len(CHECK_SUITES) - 1}/{len(CHECK_SUITES)} invariant suites passed"
    for line, (suite, _) in zip(lines, CHECK_SUITES):
        assert suite in line
        if suite == "marginal unbiasedness":
            assert line.startswith("FAIL")
            assert "residual       inf" in line
            assert line.endswith("[RuntimeError: boom]")
        else:
            assert line.startswith("ok")


def test_check_stdout_is_deterministic(capsys):
    argv = ["check", "--seed", "3", "--trials", "20", "--grid", "5"]
    first = run(capsys, argv)
    assert first[0] == 0
    assert run(capsys, argv) == first


# ----------------------------------------------------------------------
# sweep

def small_sweep_args(tmp_path, name="sweep.csv", fmt="csv", extra=()):
    out = tmp_path / name
    return out, [
        "sweep", "--alpha-steps", "5", "--eta-steps", "5",
        "--quad-res", "16", "--out", str(out), "--format", fmt, *extra,
    ]


def test_sweep_csv_contract(capsys, tmp_path):
    out, argv = small_sweep_args(tmp_path)
    code, _, _ = run(capsys, argv)
    assert code == 0
    raw = out.read_bytes()
    assert b"\r\n" in raw  # RFC 4180 line endings
    with open(out, newline="") as fh:
        rows = list(csv.reader(fh))
    assert tuple(rows[0]) == SWEEP_COLUMNS
    assert len(rows) == 1 + 5 * 5
    for row in rows[1:]:
        record = dict(zip(SWEEP_COLUMNS, row))
        beta = float(record["beta"])  # resolved value, never the policy token
        assert 0.0 <= beta <= 1.0
        assert float(record["f_av_quad"]) >= float(record["f_m_quad"]) - 1e-10


def test_sweep_is_deterministic(capsys, tmp_path):
    out1, argv1 = small_sweep_args(tmp_path, "one.csv")
    out2, argv2 = small_sweep_args(tmp_path, "two.csv")
    assert run(capsys, argv1)[0] == 0
    assert run(capsys, argv2)[0] == 0
    assert out1.read_bytes() == out2.read_bytes()


def test_sweep_json_round_trips(capsys, tmp_path):
    out, argv = small_sweep_args(tmp_path, "sweep.json", fmt="json")
    assert run(capsys, argv)[0] == 0
    rows = json.loads(out.read_text())
    assert len(rows) == 25
    assert all(tuple(r.keys()) == SWEEP_COLUMNS for r in rows)
    for row in rows:
        assert row["f_av_quad"] >= row["f_m_quad"] - 1e-10
        assert row["discrepancy_flags"] == ""


def test_sweep_default_resolution_matches_golden(capsys, tmp_path):
    # golden_sweep_9x9.csv is `sweep --alpha-steps 9 --eta-steps 9 --quad-res 64`
    # as computed with the 64 x 128 node rule before the 8-node rule became
    # the default.  Two cells of its last row, (1, 1, pi), were later replaced
    # by what that command gives once the dilation enters the weight p = 6.1e-17
    # as exactly 0: f_av_quad 0.50000000260836908 -> 0.49999999999999922 and
    # f_a_quad 0.666666671883406 -> 0.66666666666666552, which now match their
    # closed forms 0.49999999999999994 and 0.66666666666666663.
    out = tmp_path / "sweep.csv"
    code, _, _ = run(capsys, ["sweep", "--alpha-steps", "9", "--eta-steps", "9",
                              "--out", str(out)])
    assert code == 0
    golden_path = Path(__file__).with_name("golden_sweep_9x9.csv")
    with open(golden_path, newline="") as fh:
        golden = list(csv.DictReader(fh))
    with open(out, newline="") as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == len(golden) == 81
    for row, want in zip(rows, golden):
        assert row["discrepancy_flags"] == want["discrepancy_flags"]
        got = np.array([float(row[c]) for c in SWEEP_COLUMNS[:-1]])
        ref = np.array([float(want[c]) for c in SWEEP_COLUMNS[:-1]])
        assert np.array_equal(np.isnan(got), np.isnan(ref))
        finite = ~np.isnan(ref)
        assert np.max(np.abs(got[finite] - ref[finite]), initial=0.0) <= 1e-13


def test_sweep_columns_are_report_fields():
    fields = [f.name for f in dataclasses.fields(fidelity_module.FidelityReport)]
    assert set(SWEEP_COLUMNS[:-1]) <= set(fields)
    assert SWEEP_COLUMNS[-1] == "discrepancy_flags"


def test_sweep_columns_are_the_leading_report_fields_in_order():
    # The sweep prints each stack's value rows as they come, less the last
    fields = [f.name for f in dataclasses.fields(fidelity_module.FidelityReport)]
    assert list(SWEEP_COLUMNS[:-1]) == fields[:13]
    assert fields[13:] == ["f_b_quad", "discrepancies"]


def test_sweep_csv_and_json_hold_the_same_rows(capsys, tmp_path):
    paths = {}
    for fmt in ("csv", "json"):
        paths[fmt] = tmp_path / f"sweep.{fmt}"
        code, _, _ = run(capsys, ["sweep", "--alpha-steps", "5", "--eta-steps", "5",
                                  "--format", fmt, "--out", str(paths[fmt])])
        assert code == 0
    with open(paths["csv"], newline="") as fh:
        csv_rows = list(csv.DictReader(fh))
    json_rows = json.loads(paths["json"].read_text())
    assert len(csv_rows) == len(json_rows) == 25
    for from_csv, from_json in zip(csv_rows, json_rows):
        assert list(from_csv) == list(from_json) == list(SWEEP_COLUMNS)
        assert from_csv["discrepancy_flags"] == from_json["discrepancy_flags"]
        for column in SWEEP_COLUMNS[:-1]:
            value = float(from_csv[column])
            if from_json[column] is None:
                assert math.isnan(value)
            else:
                assert value == from_json[column]


def test_frontier_corner_clones_and_averages_exactly():
    # alpha = 1 at float pi: beta_max gives the commuting beta = 1, but the
    # computed weight p is 6.1e-17 rather than 0
    g = measurement_module.geometry_from_angles(
        1.0, measurement_module.beta_max(1.0, math.pi), math.pi)
    assert g.beta == 1.0 and 0.0 < g.p < measurement_module.DEGENERATE_TOL
    normal = np.array([0.0, 1.0, 0.0])
    worst = 0.0
    for psi in fidelity_module.haar_states(200, seed=3):
        c_in = linalg_module.bloch_from_density(np.outer(psi, psi.conj()))
        out = cloner_module.clone_pure(g, psi)
        worst = max(worst, *cli_module._transfer_residuals(g, c_in, out, normal).values())
    assert worst <= 1e-12
    rep = fidelity_module.fidelity_report(g)
    assert abs(rep.f_av_quad - rep.f_av_closed) <= 1e-14
    assert abs(rep.f_a_quad - rep.f_a_closed) <= 1e-14


def test_sweep_rejects_invalid_range(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, [
        "sweep", "--eta-min", "2.0", "--eta-max", "1.0", "--out", str(out),
    ])
    assert code == 2
    assert "eta" in err


@pytest.mark.parametrize("eta_min,eta_max", [(0.0, math.pi + 1e-10), (-1e-10, math.pi)])
def test_sweep_eta_range_admits_a_decade_inside_its_tolerance(eta_min, eta_max):
    # Only acceptance: how an eta just outside [0, pi] folds is still open
    cfg = cli_module.SweepConfig(2, 3, eta_min, eta_max, "max", 2, "-", "csv")
    assert len(cli_module.sweep_rows(cfg)) == 6


@pytest.mark.parametrize("eta_min,eta_max", [(0.0, math.pi + 1e-8), (-1e-8, math.pi)])
def test_sweep_eta_range_refuses_a_decade_outside_its_tolerance(eta_min, eta_max):
    cfg = cli_module.SweepConfig(2, 3, eta_min, eta_max, "max", 2, "-", "csv")
    with pytest.raises(ValueError, match="eta range"):
        cli_module.sweep_rows(cfg)


@pytest.mark.parametrize("degrees,code", [("180", 0), ("181", 2)])
def test_sweep_eta_max_in_degrees_stops_at_180(capsys, tmp_path, degrees, code):
    out = tmp_path / "x.csv"
    got, _, err = run(capsys, ["sweep", "--alpha-steps", "2", "--eta-steps", "3",
                               "--eta-max", degrees, "--degrees", "--out", str(out)])
    assert got == code
    assert ("eta range" in err) == (code == 2)


@pytest.mark.parametrize("steps", [(1, 3), (3, 1)])
def test_sweep_rows_refuse_fewer_than_two_steps(steps):
    cfg = cli_module.SweepConfig(*steps, 0.0, math.pi, "max", 2, "-", "csv")
    with pytest.raises(ValueError, match="alpha-steps and eta-steps must both be >= 2"):
        cli_module.sweep_rows(cfg)


def test_sweep_rejects_unwritable_path(capsys):
    code, _, err = run(capsys, [
        "sweep", "--alpha-steps", "2", "--eta-steps", "2", "--quad-res", "4",
        "--out", "/nonexistent-dir/sweep.csv",
    ])
    assert code == 2
    assert "error" in err


def test_sweep_fixed_beta_rejects_non_saturating(capsys, tmp_path):
    out = tmp_path / "x.csv"
    code, _, err = run(capsys, [
        "sweep", "--alpha-steps", "5", "--eta-steps", "5", "--beta", "0.5",
        "--quad-res", "8", "--out", str(out),
    ])
    assert code == 2
    assert "saturate" in err
    assert not out.exists()


DEG = math.pi / 180.0  # the scale cmd_sweep applies to --degrees angles


@pytest.mark.parametrize("argv,cfg", [
    ([], (41, 41, 0.0, math.pi, 2)),
    # one geometry per stack at resolution 64, so the rows come from many stacks
    (["--alpha-steps", "9", "--eta-steps", "9", "--quad-res", "64"], (9, 9, 0.0, math.pi, 64)),
    # rows with discrepancy flags
    (["--alpha-steps", "5", "--eta-steps", "5", "--quad-res", "1"], (5, 5, 0.0, math.pi, 1)),
    (["--alpha-steps", "7", "--eta-steps", "6", "--eta-min", "30", "--eta-max", "150",
      "--degrees"], (7, 6, 30.0 * DEG, 150.0 * DEG, 2)),
], ids=["default", "9x9-res64", "5x5-res1", "degrees"])
@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_command_and_sweep_rows_render_the_same_bytes(tmp_path, argv, cfg, fmt):
    # cmd_sweep renders row tuples; sweep_rows keys the same tuples by column
    out = tmp_path / f"sweep.{fmt}"
    assert main(["sweep", *argv, "--format", fmt, "--out", str(out)]) == 0
    rows = cli_module.sweep_rows(cli_module.SweepConfig(*cfg[:4], "max", cfg[4], "-", fmt))
    render = cli_module._render_rows_csv if fmt == "csv" else cli_module._render_rows_json
    with open(out, newline="") as fh:
        assert fh.read() == render(rows)
    if cfg[4] == 1:
        assert any(r["discrepancy_flags"] for r in rows)


@pytest.mark.parametrize("resolution", [1, 64])
def test_sweep_rows_hold_the_report_fields_bit_for_bit(resolution):
    cfg = cli_module.SweepConfig(5, 7, 0.0, math.pi, "max", resolution, "-", "csv")
    geometries = [cli_module._geometry("max", alpha, eta)
                  for alpha in np.linspace(0.0, 1.0, 5).tolist()
                  for eta in np.linspace(0.0, math.pi, 7).tolist()]
    rows = cli_module.sweep_rows(cfg)
    reports = fidelity_module.fidelity_reports(geometries, resolution)
    assert len(rows) == len(reports) == 35
    for row, rep in zip(rows, reports):
        assert row["discrepancy_flags"] == ";".join(rep.discrepancies)
        for column in SWEEP_COLUMNS[:-1]:
            got, want = row[column], getattr(rep, column)
            assert type(got) is float
            assert got == want or (math.isnan(got) and math.isnan(want)), column


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_sweep_fixed_beta_fails_with_the_first_non_saturating_point(capsys, tmp_path, fmt):
    cfg = cli_module.SweepConfig(5, 5, 0.0, math.pi, 0.5, 2, "-", fmt)
    with pytest.raises(measurement_module.NonSaturating) as raised:
        cli_module.sweep_rows(cfg)
    out = tmp_path / f"x.{fmt}"
    code, stdout, err = run(capsys, ["sweep", "--alpha-steps", "5", "--eta-steps", "5",
                                     "--beta", "0.5", "--format", fmt, "--out", str(out)])
    assert (code, stdout, err) == (2, "", f"error: {raised.value}\n")
    assert not out.exists()


def test_sweep_builds_geometries_in_grid_order(monkeypatch):
    # Each alpha row's geometries are built, and so validated, before the row
    # is evaluated; the first bad point of the grid is the one that raises.
    seen = []
    original = cli_module._geometry

    def recording(policy, alpha, eta):
        seen.append((float(alpha), float(eta)))
        if len(seen) == 7:
            raise measurement_module.NonSaturating(0.5)
        return original(policy, alpha, eta)

    monkeypatch.setattr(cli_module, "_geometry", recording)
    cfg = cli_module.SweepConfig(3, 4, 0.0, math.pi, "max", 2, "-", "csv")
    with pytest.raises(measurement_module.NonSaturating):
        cli_module.sweep_rows(cfg)
    grid = [(a, e) for a in np.linspace(0.0, 1.0, 3) for e in np.linspace(0.0, math.pi, 4)]
    assert seen == grid[:7]


def test_grid_points_reach_geometries_as_python_floats(monkeypatch):
    # sweep and check read their canonical grids as Python floats, on which the
    # per-geometry formulas run faster than on np.float64 scalars.
    seen = []
    original = cli_module._geometry

    def recording(policy, alpha, eta):
        seen.append((type(alpha), type(eta)))
        return original(policy, alpha, eta)

    monkeypatch.setattr(cli_module, "_geometry", recording)
    cli_module.sweep_rows(cli_module.SweepConfig(3, 4, 0.0, math.pi, "max", 2, "-", "csv"))
    assert seen == [(float, float)] * 12
    seen.clear()
    run_checks(trials=1, grid=3)
    assert seen and set(seen) == {(float, float)}


@pytest.mark.parametrize("row,name", [(0, "f_av"), (1, "f_a"), (2, "f_b")])
@pytest.mark.parametrize("miss,flagged", [(2e-6, True), (-2e-6, True), (5e-7, False),
                                          (-5e-7, False)])
def test_closed_form_flagged_above_the_tolerance(monkeypatch, row, name, miss, flagged):
    # Reports and sweep's discrepancy_flags name a closed form once it misses
    # its average by more than fidelity.DISCREPANCY_TOL = 1e-6, and not a
    # decade inside that
    original = fidelity_module._closed_forms

    def missing(*args):
        closed = original(*args)
        closed[row] += miss
        return closed

    cfg = cli_module.SweepConfig(3, 3, 0.3, 2.5, "max", 2, "-", "csv")
    geometries = [cli_module._geometry("max", alpha, eta)
                  for alpha in (0.1, 0.5, 0.9) for eta in (0.4, math.pi / 2, 2.6)]
    assert {r["discrepancy_flags"] for r in cli_module.sweep_rows(cfg)} == {""}
    assert {r.discrepancies for r in fidelity_module.fidelity_reports(geometries)} == {()}
    monkeypatch.setattr(fidelity_module, "_closed_forms", missing)
    rows = cli_module.sweep_rows(cfg)
    assert len(rows) == 9
    assert {r["discrepancy_flags"] for r in rows} == {name if flagged else ""}
    reports = fidelity_module.fidelity_reports(geometries)
    assert {r.discrepancies for r in reports} == {(name,) if flagged else ()}


def test_sweep_memory_stays_bounded_at_fine_resolution():
    # Stacks hold at most fidelity.STACK_NODES node evaluations, so a 9x41
    # sweep at resolution 64 keeps the working set of one geometry's grid.
    import tracemalloc

    cfg = cli_module.SweepConfig(9, 41, 0.0, math.pi, "max", 64, "-", "csv")
    tracemalloc.start()
    try:
        rows = cli_module.sweep_rows(cfg)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert len(rows) == 9 * 41
    assert peak < 8e6


def test_sweep_streams_rows_into_the_renderer(tmp_path):
    # The default sweep renders rows as their alpha row is evaluated, so no
    # table of all 1,681 row dicts is held next to the text.  A small sweep
    # first loads the lazy imports and the quadrature cache, which are not
    # part of the sweep's working set.
    import tracemalloc

    out = tmp_path / "sweep.csv"
    assert main(["sweep", "--alpha-steps", "2", "--eta-steps", "2", "--out", str(out)]) == 0
    tracemalloc.start()
    try:
        code = main(["sweep", "--out", str(out)])
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert code == 0
    assert len(out.read_bytes().splitlines()) == 1 + 41 * 41
    assert peak < 1.6e6


# ----------------------------------------------------------------------
# renderers

def reference_fmt(x) -> str:
    return format(float(x), ".17g")


def reference_csv(rows) -> str:
    """The sweep CSV as csv.writer writes it, one field at a time."""
    buf = io.StringIO()
    writer = csv.writer(buf)
    writer.writerow(SWEEP_COLUMNS)
    for row in rows:
        writer.writerow(
            [row[c] if isinstance(row[c], str) else reference_fmt(row[c]) for c in SWEEP_COLUMNS]
        )
    return buf.getvalue()


def reference_json(v) -> str:
    """The JSON writer with keys and strings quoted by json.dumps."""
    if v is None:
        return "null"
    if isinstance(v, str):
        return json.dumps(v)
    if isinstance(v, bool):
        return "true" if v else "false"
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (float, np.floating)):
        x = float(v)
        return "null" if math.isnan(x) or math.isinf(x) else reference_fmt(x)
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(reference_json(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{json.dumps(str(k))}: {reference_json(x)}"
                               for k, x in v.items()) + "}"
    raise TypeError(f"cannot serialize {type(v)!r}")


EDGE_FLOATS = (
    math.nan, math.inf, -math.inf, -0.0, 0.0, 5e-324, 1.7976931348623157e308,
    np.float64(0.1), np.float64(-math.inf), np.float64(math.nan), np.float64(-0.0),
    1.0 / 3.0, 2.0, 1e-17, np.float64(0.33333333333333348),
)


def test_csv_renderer_matches_csv_writer():
    numeric = SWEEP_COLUMNS[:-1]
    rows = []
    for i, flags in enumerate(("", "f_av", "f_av;f_a;f_b", "f_av;f_b")):
        values = [EDGE_FLOATS[(i + j) % len(EDGE_FLOATS)] for j in range(len(numeric))]
        row = dict(zip(numeric, values), discrepancy_flags=flags)
        rows.append(dict(reversed(row.items())) if i % 2 else row)  # read by name
    assert cli_module._render_rows_csv(rows) == reference_csv(rows)
    assert cli_module._render_rows_csv([]) == reference_csv([])
    with io.StringIO(cli_module._render_rows_csv(rows), newline="") as fh:
        parsed = list(csv.reader(fh))
    assert [r[-1] for r in parsed[1:]] == ["", "f_av", "f_av;f_a;f_b", "f_av;f_b"]


@pytest.mark.parametrize("value", [
    None, True, False, np.int64(-7), 12, np.float64(0.1), math.nan, math.inf, -math.inf,
    -0.0, 5e-324, 1.7976931348623157e308, "f_av;f_a", 'quote " and \\ and \n', "\u03b7\u00e9",
    [1, [2.5, None, [np.float64(3.0), "x"]], (np.int32(4), -math.inf)],
    (0.1, (0.2, (math.nan,))),
    np.array([[1.0, math.nan], [-0.0, 5e-324]]),
    np.array([1, 2, 3]),
    {"alpha": 0.6, "state": {"theta": np.float64(0.7), "phi": [math.inf, -0.0]},
     "\u03b7": 1.1, "Z\u00fcrich \u2603": (True, None), 3: "int key"},
    list(EDGE_FLOATS),
])
def test_json_value_matches_json_dumps_quoting(value):
    assert cli_module._json_value(value) == reference_json(value)


def test_json_value_rejects_unknown_types():
    with pytest.raises(TypeError):
        cli_module._json_value({1, 2})


# ----------------------------------------------------------------------
# clone

def test_clone_derived_record(capsys):
    code, out, _ = run(capsys, [
        "clone", "--alpha", "0.6", "--eta", "90", "--theta", "0", "--degrees",
    ])
    assert code == 0
    record = json.loads(out)
    assert np.allclose(record["probabilities"], [0.4, 0.4, 0.1, 0.1], atol=1e-12)
    lambdas = [complex(re, im) for re, im in record["lambdas"]]
    assert np.allclose(np.abs(lambdas) ** 2, record["probabilities"], atol=1e-12)
    assert all(value < 1e-10 for value in record["residuals"].values())
    assert record["beta"] == pytest.approx(0.8, abs=1e-12)


def test_clone_non_saturating_exit_code(capsys):
    code, _, err = run(capsys, [
        "clone", "--alpha", "0.9", "--beta", "0.9", "--eta", "90", "--degrees",
    ])
    assert code == 2
    assert "saturate" in err
    expected_residual = 1.8 * math.sqrt(2) - 2
    assert f"{expected_residual:.3e}" in err


def test_clone_degrees_matches_radians(capsys):
    _, out_deg, _ = run(capsys, ["clone", "--alpha", "0.6", "--eta", "90", "--degrees"])
    _, out_rad, _ = run(capsys, ["clone", "--alpha", "0.6", "--eta", str(math.pi / 2)])
    assert out_deg == out_rad


@pytest.mark.parametrize("argv,flag", [
    (["clone", "--alpha", "0.6"], "--eta"),
    (["clone", "--eta", "1.0"], "--alpha"),
    (["sample", "--alpha", "0.6", "--eta", "1.0", "--n", "10"], "--theta"),
    (["sample", "--alpha", "0.6", "--eta", "1.0", "--n", "10"], "--bloch-r"),
    (["sweep", "--out", "-"], "--eta-max"),
])
@pytest.mark.parametrize("value", ["nan", "inf", "-inf"])
def test_non_finite_flag_is_usage_error(capsys, argv, flag, value):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [f"{flag}={value}"])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert "finite" in err


def test_numeric_flag_that_is_not_a_number_is_usage_error(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["clone", "--alpha", "abc", "--eta", "1.0"])
    assert excinfo.value.code == 2
    assert "argument --alpha: expected a number, got 'abc'" in capsys.readouterr().err


def test_size_flag_that_is_not_an_integer_is_usage_error(capsys):
    # Refused, not truncated to 2
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--alpha-steps", "2.5", "--out", "-"])
    assert excinfo.value.code == 2
    assert "argument --alpha-steps: expected an integer, got '2.5'" in capsys.readouterr().err


# ----------------------------------------------------------------------
# sample

def test_sample_deterministic(capsys, tmp_path):
    argv = [
        "sample", "--alpha", "0.6", "--eta", str(math.pi / 2),
        "--bloch-r", "0", "--n", "50000", "--seed", "11",
    ]
    f1, f2 = tmp_path / "s1.json", tmp_path / "s2.json"
    assert run(capsys, argv + ["--out", str(f1)])[0] == 0
    assert run(capsys, argv + ["--out", str(f2)])[0] == 0
    assert f1.read_bytes() == f2.read_bytes()


def test_sample_single_draw(capsys):
    code, out, _ = run(capsys, [
        "sample", "--alpha", "0.6", "--eta", str(math.pi / 2), "--n", "1",
    ])
    assert code == 0
    record = json.loads(out)
    assert sum(record["counts"]) == 1


def test_sample_chi_square_healthy(capsys):
    code, out, _ = run(capsys, [
        "sample", "--alpha", "0.6", "--eta", str(math.pi / 2),
        "--bloch-r", "0", "--n", "1000000",
    ])
    assert code == 0
    record = json.loads(out)
    assert record["p_value"] > 0.001
    assert sum(record["counts"]) == 1000000
    assert np.allclose(record["expected"], 0.25, atol=1e-12)


def test_sample_rejects_bad_bloch_radius(capsys):
    code, _, err = run(capsys, [
        "sample", "--alpha", "0.6", "--eta", "1.0", "--bloch-r", "1.5", "--n", "10",
    ])
    assert code == 2
    assert "bloch-r" in err


def test_sample_bloch_radius_error_names_the_value(capsys, monkeypatch):
    # refused before the geometry is built
    monkeypatch.setattr(measurement_module, "geometry_from_angles", None)
    code, _, err = run(capsys, [
        "sample", "--alpha", "0.6", "--eta", "1.0", "--bloch-r", "1.5", "--n", "10",
    ])
    assert code == 2
    assert "argument --bloch-r: must lie in [0, 1], got 1.5" in err


def test_sample_expected_is_the_born_distribution(capsys):
    code, out, _ = run(capsys, [
        "sample", "--alpha", "0.6", "--eta", "1.2", "--theta", "0.7", "--phi", "2.0",
        "--bloch-r", "0.5", "--n", "10",
    ])
    assert code == 0
    g = measurement_module.geometry_from_angles(0.6, measurement_module.beta_max(0.6, 1.2), 1.2)
    direction = [math.sin(0.7) * math.cos(2.0), math.sin(0.7) * math.sin(2.0), math.cos(0.7)]
    rho = linalg_module.density_from_bloch(0.5 * np.array(direction))
    want = measurement_module.joint_distribution(rho, measurement_module.build_povm(g)).as_array()
    assert np.max(np.abs(np.array(json.loads(out)["expected"]) - want)) <= 1e-15


# ----------------------------------------------------------------------
# exit-code contract

def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep"])  # missing required --out
    assert excinfo.value.code == 2


def test_sweep_seed_flag_removed(capsys):
    # sweep is deterministic and draws nothing, so it takes no --seed
    with pytest.raises(SystemExit) as excinfo:
        main(["sweep", "--seed", "1", "--out", "-"])
    assert excinfo.value.code == 2
    assert "--seed" in capsys.readouterr().err


def test_unknown_command_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["frobnicate"])
    assert excinfo.value.code == 2


def test_module_entry_point_exits_with_the_command_status(monkeypatch, capsys):
    # python -m spinclone, in this process: __main__ calls cli.entry, which
    # exits with main's status, 0 on success and 2 for an error a command raises
    for argv, code in ((["clone", "--alpha", "0.6", "--eta", "1.0"], 0),
                       (["sample", "--alpha", "0.6", "--eta", "1.0", "--bloch-r", "2",
                         "--n", "10"], 2)):
        monkeypatch.setattr(sys, "argv", ["spinclone", *argv])
        with pytest.raises(SystemExit) as excinfo:
            runpy.run_module("spinclone", run_name="__main__")
        assert excinfo.value.code == code
    captured = capsys.readouterr()
    assert json.loads(captured.out)["eta"] == 1.0
    assert "--bloch-r" in captured.err


@pytest.mark.parametrize("argv,flag,limit", [
    (["sweep", "--out", "-"], "--alpha-steps", cli_module.MAX_SWEEP_STEPS),
    (["sweep", "--out", "-"], "--eta-steps", cli_module.MAX_SWEEP_STEPS),
    (["sweep", "--out", "-"], "--quad-res", cli_module.MAX_QUAD_RES),
    (["sample", "--alpha", "0.6", "--eta", "1.0"], "--n", cli_module.MAX_DRAWS),
    (["check"], "--trials", cli_module.MAX_TRIALS),
    (["check"], "--grid", cli_module.MAX_CHECK_GRID),
])
def test_size_flag_above_limit_is_usage_error(capsys, argv, flag, limit):
    # Rejected while parsing, so no work starts; the limit itself is never run.
    with pytest.raises(SystemExit) as excinfo:
        main(argv + [flag, str(limit + 1)])
    assert excinfo.value.code == 2
    err = capsys.readouterr().err
    assert f"argument {flag}" in err
    assert str(limit) in err


@pytest.mark.parametrize("argv", [
    ["check"],
    ["sample", "--alpha", "0.6", "--eta", "1.0", "--n", "10"],
])
def test_negative_seed_is_usage_error_naming_the_flag(capsys, argv):
    with pytest.raises(SystemExit) as excinfo:
        main(argv + ["--seed", "-1"])
    assert excinfo.value.code == 2
    assert "argument --seed" in capsys.readouterr().err
    # the flag has no upper limit: every seed numpy accepts still parses
    assert build_parser().parse_args(argv + ["--seed", str(10**40)]).seed == 10**40


def test_size_limits_admit_sizes_in_use():
    parser = build_parser()
    sweep = parser.parse_args(["sweep", "--out", "-", "--alpha-steps", "41",
                               "--eta-steps", "41", "--quad-res", "64"])
    assert (sweep.alpha_steps, sweep.eta_steps, sweep.quad_res) == (41, 41, 64)
    sample = parser.parse_args(["sample", "--alpha", "0.6", "--eta", "1.0",
                                "--n", "1000000"])
    assert sample.n == 1000000
    check = parser.parse_args(["check"])
    assert (check.trials, check.grid) == (200, 15)


# ----------------------------------------------------------------------
# scipy is a test dependency only

SRC_DIR = Path(__file__).resolve().parents[1] / "src"

# Runs ``python -m spinclone ARGV`` with every scipy import failing.
BLOCK_SCIPY = """
import runpy, sys

class BlockScipy:
    def find_spec(self, name, path=None, target=None):
        if name == "scipy" or name.startswith("scipy."):
            raise ImportError(f"{name} is blocked")

sys.meta_path.insert(0, BlockScipy())
try:
    import scipy
except ImportError:
    pass
else:
    sys.exit("the scipy blocker did not block")
sys.argv = ["spinclone", *sys.argv[1:]]
runpy.run_module("spinclone", run_name="__main__", alter_sys=True)
"""


def _python(*args: str) -> subprocess.CompletedProcess:
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC_DIR), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, *args], capture_output=True, text=True,
                          env=env, timeout=120)


@pytest.mark.parametrize("argv", [
    ["clone", "--alpha", "0.6", "--eta", "90", "--degrees", "--theta", "0.3"],
    ["sample", "--alpha", "0.6", "--eta", "1.2", "--bloch-r", "0.5", "--n", "1000"],
    ["check", "--trials", "5", "--grid", "3"],
    ["check"],
    ["sweep", "--alpha-steps", "5", "--eta-steps", "5", "--out", "-"],
    ["sweep", "--alpha-steps", "5", "--eta-steps", "5", "--out", "-", "--format", "json"],
])
def test_cli_runs_without_scipy(argv):
    proc = _python("-c", BLOCK_SCIPY, *argv)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout


def test_cli_import_loads_no_scipy():
    proc = _python("-c", "import sys, spinclone.cli; "
                         "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "[]"
