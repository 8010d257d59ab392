"""Command-line front end: invariant checks, sweeps, cloning, sampling.

Subcommands
-----------
check   run the package invariant suites and report residuals
sweep   tabulate fidelity surfaces over an (alpha, eta) grid (CSV/JSON)
clone   clone one pure state and print the full diagnostic record (JSON)
sample  draw joint-measurement outcomes and chi-square them (JSON)

Exit codes: 0 success, 1 invariant failure, 2 usage or configuration
error.  Size flags have upper bounds (``MAX_*`` below), checked at parse
time like most usage errors; ``--bloch-r`` and the sweep's eta range are
checked when the command runs, which then returns 2.  All numeric output
is serialized with 17 significant digits and is byte-identical across
reruns with the same configuration and seed.
"""

from __future__ import annotations

import argparse
import json
import math
import sys
from collections.abc import Iterable, Iterator
from dataclasses import dataclass
from operator import attrgetter, itemgetter

import numpy as np

from . import cloner, fidelity, linalg, measurement

# The FidelityReport fields of the same names, then the joined discrepancy flags.
SWEEP_COLUMNS = (
    "alpha", "beta", "eta", "p", "epsilon",
    "f_av_quad", "f_av_closed", "f_m_quad", "f_a_quad", "f_a_closed",
    "f_b_closed", "f_ma_closed", "f_mb_closed", "discrepancy_flags",
)
_report_fields = attrgetter(*SWEEP_COLUMNS[:-1])
_row_fields = itemgetter(*SWEEP_COLUMNS)
_quote = json.encoder.encode_basestring_ascii  # json.dumps of a str

# Upper bounds on the size flags.  The work and memory of a run grow with
# these sizes, so a mistyped value is refused before it starts, not after
# it has run out of time or memory.  Each bound is far above the default.
MAX_SWEEP_STEPS = 201   # sweep --alpha-steps, --eta-steps (default 41)
MAX_QUAD_RES = 256      # sweep --quad-res (default 2; 64 in convergence tests)
MAX_DRAWS = 10**9       # sample --n (multinomial draws cost the same for any n)
MAX_TRIALS = 10_000     # check --trials (default 200)
MAX_CHECK_GRID = 101    # check --grid (default 15)


@dataclass(frozen=True)
class SweepConfig:
    alpha_steps: int
    eta_steps: int
    eta_min: float
    eta_max: float
    beta_policy: str | float
    resolution: int
    out: str
    fmt: str

    def validate(self) -> None:
        if self.alpha_steps < 2 or self.eta_steps < 2:
            raise ValueError("alpha-steps and eta-steps must both be >= 2")
        if not (-1e-9 <= self.eta_min <= self.eta_max <= math.pi + 1e-9):
            raise ValueError("eta range must satisfy 0 <= eta-min <= eta-max <= pi")
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be csv or json, got {self.fmt!r}")
        if self.resolution < 1:
            raise ValueError("quad-res must be >= 1")


@dataclass(frozen=True)
class CheckResult:
    name: str
    residual: float
    tolerance: float
    note: str = ""

    @property
    def passed(self) -> bool:
        return self.residual <= self.tolerance


def _finite_float(text: str) -> float:
    """argparse type for numeric flags: nan and infinities are usage errors."""
    try:
        value = float(text)
    except ValueError:
        raise argparse.ArgumentTypeError(f"expected a number, got {text!r}") from None
    if not math.isfinite(value):
        raise argparse.ArgumentTypeError(f"expected a finite number, got {text!r}")
    return value


def _int_in(low: int, high: int):
    """argparse type for size and seed flags: an integer in [low, high]."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            raise argparse.ArgumentTypeError(f"expected an integer, got {text!r}") from None
        if not low <= value <= high:
            raise argparse.ArgumentTypeError(f"must lie in [{low}, {high}], got {value}")
        return value

    return parse


def _beta_flag(text: str) -> str | float:
    return text if text == "max" else _finite_float(text)


def _json_value(v) -> str:
    if type(v) is float or isinstance(v, np.floating):  # most values are
        return format(float(v), ".17g") if math.isfinite(v) else "null"
    if isinstance(v, str):
        return _quote(v)
    if v is None or isinstance(v, bool):
        return json.dumps(v)
    if isinstance(v, (int, np.integer)):
        return str(int(v))
    if isinstance(v, (list, tuple, np.ndarray)):
        return "[" + ", ".join(_json_value(x) for x in v) + "]"
    if isinstance(v, dict):
        return "{" + ", ".join(f"{_quote(str(k))}: {_json_value(x)}" for k, x in v.items()) + "}"
    raise TypeError(f"cannot serialize {type(v)!r}")


# One template gives csv.writer's RFC 4180 rows (CRLF ends): every field is a
# number, or flag names joined by ";", so none needs quoting.
_CSV_ROW = "%.17g," * (len(SWEEP_COLUMNS) - 1) + "%s\r\n"


def _render_rows_csv(rows: Iterable[dict]) -> str:
    return ",".join(SWEEP_COLUMNS) + "\r\n" + "".join([_CSV_ROW % _row_fields(r) for r in rows])


def _render_rows_json(rows: Iterable[dict]) -> str:
    body = ",\n".join("  " + _json_value(row) for row in rows)
    return "[\n" + body + "\n]\n"


def _write_text(path: str, text: str) -> None:
    if path == "-":
        sys.stdout.write(text)
    else:
        with open(path, "w", newline="") as fh:
            fh.write(text)


def _angles(args, names):
    scale = math.pi / 180.0 if getattr(args, "degrees", False) else 1.0
    return tuple(getattr(args, n) * scale for n in names)


def _geometry(policy: str | float, alpha: float, eta: float) -> measurement.MeasurementGeometry:
    """Canonical-frame geometry at (alpha, eta); beta is beta_max for "max", else float(policy)."""
    beta = measurement.beta_max(alpha, eta) if policy == "max" else float(policy)
    return measurement.geometry_from_angles(alpha, beta, eta)


def _bloch_state(theta: float, phi: float) -> np.ndarray:
    (c, s), _ = linalg._inplane_pair(theta)
    return np.array([c, np.exp(1j * phi) * s])


def _direction(theta: float, phi: float) -> np.ndarray:
    """Bloch vector of _bloch_state(theta, phi)."""
    st = math.sin(theta)
    return np.array([st * math.cos(phi), st * math.sin(phi), math.cos(theta)])


# ----------------------------------------------------------------------
# check

def _transfer_residuals(g, c_in: np.ndarray, out, normal: np.ndarray) -> dict:
    """Bloch-transfer residuals for input Bloch vector c_in and unit plane normal n:
    a.c_a = alpha a.c_in, b.c_b = beta b.c_in, n.c_a = sqrt(1 - beta^2) n.c_in, n.c_b = 0."""
    return {
        "axis_a_transfer": abs(g.a @ out.bloch_a - g.alpha * (g.a @ c_in)),
        "axis_b_transfer": abs(g.b @ out.bloch_b - g.beta * (g.b @ c_in)),
        "normal_transfer_a": abs(
            normal @ out.bloch_a - math.sqrt(max(1 - g.beta**2, 0.0)) * (normal @ c_in)
        ),
        "normal_component_b": abs(normal @ out.bloch_b),
    }


def run_checks(trials: int = 200, grid: int = 15, seed: int = 0) -> list[CheckResult]:
    """Run every invariant suite and return one result per suite, in a fixed order.

    A suite is a name, a tolerance, a residual function and its samples:
    ``trials`` random axes, Bloch vectors, densities or random-frame
    geometries (with states), the ``grid`` x ``grid`` canonical (alpha, eta)
    grid, or four fixed points.  The two fidelity suites sample the reports
    of their canonical geometries, evaluated as one stack.  Its residual is
    the largest value of the function over the samples, floored at 0, and
    NaN if any value is NaN; the suite passes when that is within the
    tolerance.  A suite that raises gets an infinite residual and the
    exception as its note.  Samples are drawn lazily, suite by suite, and
    the random ones from one generator seeded with ``seed``.
    """
    measurement._require_integers(("trials", trials, 1), ("grid", grid, 1), ("seed", seed, 0))
    rng = np.random.default_rng(seed)
    axes = rng.normal(size=(trials, 3))
    axes /= np.linalg.norm(axes, axis=1, keepdims=True)
    pairs = [(alpha, eta) for alpha in np.linspace(0.0, 1.0, grid).tolist()
             for eta in np.linspace(0.0, math.pi, grid).tolist()]

    def bloch_vectors():
        for _ in range(trials):
            c = rng.normal(size=3)
            yield c * (rng.uniform(0, 1) / np.linalg.norm(c))

    def densities():
        for _ in range(trials):
            raw = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
            rho = raw @ raw.conj().T
            yield rho / np.trace(rho).real

    def frames():
        """Saturating geometries with random axes and random alpha."""
        for _ in range(trials):
            a = rng.normal(size=3)
            a /= np.linalg.norm(a)
            b = rng.normal(size=3)
            b /= np.linalg.norm(b)
            alpha = rng.uniform(0.0, 1.0)
            eta = 2.0 * math.atan2(np.linalg.norm(a - b), np.linalg.norm(a + b))
            yield measurement.build_geometry(a, b, alpha, measurement.beta_max(alpha, eta))

    def with_states(geometries):
        """Pair each geometry with a random pure state, drawn after the geometry."""
        for g in geometries:
            raw = rng.normal(size=2) + 1j * rng.normal(size=2)
            yield g, raw / np.linalg.norm(raw)

    def canonical(points):
        return (_geometry("max", alpha, eta) for alpha, eta in points)

    def reports(points):
        """Fidelity reports at the canonical points, as one stack built when first drawn."""
        yield from fidelity.fidelity_reports(canonical(points))

    def pauli_square(n):
        return np.max(np.abs(linalg.pauli_dot(n) @ linalg.pauli_dot(n) - linalg.IDENTITY_2))

    def eigenpairs(n):
        plus, minus = linalg.spin_eigenstates(n)
        op = linalg.pauli_dot(n)
        return max(
            np.linalg.norm(op @ plus - plus),
            np.linalg.norm(op @ minus + minus),
            abs(np.vdot(plus, minus)),
            abs(np.vdot(plus, plus) - 1),
            abs(np.vdot(minus, minus) - 1),
        )

    def bloch_round_trip(c):
        return np.max(np.abs(linalg.bloch_from_density(linalg.density_from_bloch(c)) - c))

    def trace_preserved(rho):
        return max(abs(np.trace(linalg.partial_trace(rho, keep)).real - 1) for keep in (1, 2))

    def povm_completeness(g):
        return np.max(np.abs(sum(measurement.build_povm(g).elements) - linalg.IDENTITY_2))

    def povm_negativity(g):
        return max(-float(np.linalg.eigvalsh(e).min()) for e in measurement.build_povm(g).elements)

    def saturation(pair):
        alpha, eta = pair
        return abs(measurement.optimality_lhs(alpha, measurement.beta_max(alpha, eta), eta) - 2.0)

    def unbiasedness(draw):
        g, psi = draw
        rho = np.outer(psi, psi.conj())
        (ap, am), (bp, bm) = measurement.marginal_operators(measurement.build_povm(g))
        got_a = np.trace(rho @ (ap - am)).real
        want_a = g.alpha * np.trace(rho @ linalg.pauli_dot(g.a)).real
        got_b = np.trace(rho @ (bp - bm)).real
        want_b = g.beta * np.trace(rho @ linalg.pauli_dot(g.b)).real
        return max(abs(got_a - want_a), abs(got_b - want_b))

    def rank_one_form(g):
        povm = measurement.build_povm(g)
        m_plus, m_minus = linalg.spin_eigenstates(g.m)
        l_plus, l_minus = linalg.spin_eigenstates(g.l)
        return max(
            np.max(np.abs(element - weight * np.outer(state, state.conj())))
            for element, weight, state in (
                (povm.pp, g.p, m_plus),
                (povm.mm, g.p, m_minus),
                (povm.pm, 1 - g.p, l_plus),
                (povm.mp, 1 - g.p, l_minus),
            )
        )

    def dilation_orthonormality(g):
        basis = cloner.naimark_basis(g)
        gram = np.array([[np.vdot(v, w) for w in basis.vectors] for v in basis.vectors])
        return np.max(np.abs(gram - np.eye(4)))

    def dilation_born(draw):
        g, psi = draw
        basis = cloner.naimark_basis(g)
        povm = measurement.build_povm(g)
        full = np.kron(psi, linalg.spin_eigenstates(g.b)[0])
        return max(
            abs(abs(np.vdot(vec, full)) ** 2 - np.vdot(psi, element @ psi).real)
            for vec, element in zip(basis.vectors, povm.elements)
        )

    def unitarity(g):
        u = cloner.clone_unitary(g)
        return np.max(np.abs(u.conj().T @ u - np.eye(4)))

    def statistics_equivalence(draw):
        g, psi = draw
        born = measurement.joint_distribution(
            np.outer(psi, psi.conj()), measurement.build_povm(g)
        ).as_array()
        clone_probs = cloner.clone_pure(g, psi).probabilities
        prepared = cloner.measure_and_prepare(g, psi)
        diag = np.array([np.vdot(prod, prepared @ prod).real for prod in cloner.product_basis(g)])
        return max(np.max(np.abs(clone_probs - born)), np.max(np.abs(diag - born)))

    def bloch_transfer(draw):
        g, psi = draw
        c_in = linalg.bloch_from_density(np.outer(psi, psi.conj()))
        normal = np.cross(g.a, g.b)
        normal /= np.linalg.norm(normal)
        return max(_transfer_residuals(g, c_in, cloner.clone_pure(g, psi), normal).values())

    def closed_forms(report):
        return max(abs(report.f_a_quad - report.f_a_closed),
                   abs(report.f_b_quad - report.f_b_closed))

    def ordering(report):
        return report.f_m_quad - report.f_av_quad

    # Commuting axes span no plane: the transfer suite skips them before drawing a state.
    spanning = (g for g in frames() if not abs(np.sin(g.eta)) < 1e-6)
    fixed_points = ((0.2, 0.8), (0.6, math.pi / 2), (0.85, 2.4), (1.0, 0.0))
    suites = (
        ("pauli square is identity", 1e-12, pauli_square, axes),
        ("spin eigenstates orthonormal eigenpairs", 1e-12, eigenpairs, axes),
        ("bloch round trip", 1e-12, bloch_round_trip, bloch_vectors()),
        ("partial trace preserves trace", 1e-12, trace_preserved, densities()),
        ("povm completeness", 1e-12, povm_completeness, canonical(pairs)),
        ("povm positivity", 1e-12, povm_negativity, canonical(pairs)),
        ("saturation at maximal sharpness", 1e-9, saturation, pairs),
        ("marginal unbiasedness", 1e-10, unbiasedness, with_states(frames())),
        ("povm rank-one form", 1e-12, rank_one_form, frames()),
        ("dilation orthonormality", 1e-12, dilation_orthonormality, frames()),
        ("dilation reproduces born probabilities", 1e-10, dilation_born, with_states(frames())),
        ("cloning unitary unitarity", 1e-12, unitarity, frames()),
        ("statistics equivalence across schemes", 1e-10, statistics_equivalence,
         with_states(frames())),
        ("bloch component transfer", 1e-10, bloch_transfer, with_states(spanning)),
        ("single-clone closed forms vs quadrature", 1e-9, closed_forms, reports(fixed_points)),
        ("cloner dominates measure-and-prepare", 1e-10, ordering, reports(pairs)),
    )
    results = []
    for name, tolerance, residual, samples in suites:
        worst, note = 0.0, ""
        try:
            for sample in samples:
                value = float(residual(sample))
                # max(nan, x) is nan: once NaN, the residual stays NaN and fails
                worst = value if math.isnan(value) else max(worst, value)
        except Exception as exc:  # a crash counts as a failed invariant
            worst, note = math.inf, f"{type(exc).__name__}: {exc}"
        results.append(CheckResult(name, worst, tolerance, note))
    return results


def cmd_check(args) -> int:
    results = run_checks(trials=args.trials, grid=args.grid, seed=args.seed)
    width = max(len(r.name) for r in results)
    failed = 0
    for r in results:
        status = "ok  " if r.passed else "FAIL"
        line = f"{status}  {r.name:<{width}}  residual {r.residual:9.3e}  (tol {r.tolerance:.0e})"
        if r.note:
            line += f"  [{r.note}]"
        print(line)
        failed += 0 if r.passed else 1
    print(f"{len(results) - failed}/{len(results)} invariant suites passed")
    return 1 if failed else 0


# ----------------------------------------------------------------------
# sweep

def _sweep_row_iter(cfg: SweepConfig) -> Iterator[dict]:
    """The rows of :func:`sweep_rows`, one alpha row's stack at a time."""
    cfg.validate()
    # Python floats: per-geometry formulas take them faster than np.float64
    etas = np.linspace(cfg.eta_min, cfg.eta_max, cfg.eta_steps).tolist()
    for alpha in np.linspace(0.0, 1.0, cfg.alpha_steps).tolist():
        geometries = [_geometry(cfg.beta_policy, alpha, eta) for eta in etas]
        for rep in fidelity.fidelity_reports(geometries, resolution=cfg.resolution):
            yield dict(zip(SWEEP_COLUMNS, (*_report_fields(rep), ";".join(rep.discrepancies))))


def sweep_rows(cfg: SweepConfig) -> list[dict]:
    """Compute the sweep table in grid order (alpha outer, eta inner).

    Each alpha row's geometries are built, and so validated, in eta order,
    then evaluated together by :func:`spinclone.fidelity.fidelity_reports`,
    which builds their clone machines per stack, not per geometry.
    """
    return list(_sweep_row_iter(cfg))


def cmd_sweep(args) -> int:
    eta_min, eta_max = _angles(args, ("eta_min", "eta_max"))
    cfg = SweepConfig(
        alpha_steps=args.alpha_steps,
        eta_steps=args.eta_steps,
        eta_min=eta_min,
        eta_max=eta_max,
        beta_policy=args.beta,
        resolution=args.quad_res,
        out=args.out,
        fmt=args.format,
    )
    # Rows stream into the renderer; the text is whole before anything is written
    rows = _sweep_row_iter(cfg)
    text = _render_rows_csv(rows) if cfg.fmt == "csv" else _render_rows_json(rows)
    _write_text(cfg.out, text)
    return 0


# ----------------------------------------------------------------------
# clone

def cmd_clone(args) -> int:
    eta, theta, phi = _angles(args, ("eta", "theta", "phi"))
    g = _geometry(args.beta, args.alpha, eta)
    psi = _bloch_state(theta, phi)
    out = cloner.clone_pure(g, psi)
    c_in = _direction(theta, phi)
    normal = np.array([0.0, 1.0, 0.0])  # plane normal in the canonical frame
    record = {
        "alpha": g.alpha,
        "beta": g.beta,
        "eta": g.eta,
        "p": g.p,
        "epsilon": g.epsilon,
        "state": {"theta": theta, "phi": phi},
        "lambdas": [[lam.real, lam.imag] for lam in out.lambdas],
        "probabilities": list(out.probabilities),
        "bloch_in": list(c_in),
        "bloch_a": list(out.bloch_a),
        "bloch_b": list(out.bloch_b),
        "residuals": _transfer_residuals(g, c_in, out, normal),
    }
    _write_text(args.out, _json_value(record) + "\n")
    return 0


# ----------------------------------------------------------------------
# sample

def cmd_sample(args) -> int:
    # Refused before any work, in argparse's words; main reports it with exit code 2
    if not 0.0 <= args.bloch_r <= 1.0:
        raise ValueError(f"argument --bloch-r: must lie in [0, 1], got {args.bloch_r!r}")
    eta, theta, phi = _angles(args, ("eta", "theta", "phi"))
    g = _geometry(args.beta, args.alpha, eta)
    rho = linalg.density_from_bloch(args.bloch_r * _direction(theta, phi))
    counts = measurement.sample_outcomes(rho, g, args.n, seed=args.seed)
    expected = measurement._born_probabilities(g, rho)
    observed = np.array([counts[k] for k in measurement.OUTCOME_LABELS], dtype=float)
    chi2, dof, p_value = measurement.chi_square(observed, expected)
    record = {
        "alpha": g.alpha,
        "beta": g.beta,
        "eta": g.eta,
        "n": args.n,
        "seed": args.seed,
        "labels": list(measurement.OUTCOME_LABELS),
        "counts": [counts[k] for k in measurement.OUTCOME_LABELS],
        "frequencies": list(observed / args.n),
        "expected": list(expected),
        "chi_square": chi2,
        "dof": dof,
        "p_value": p_value,
    }
    _write_text(args.out, _json_value(record) + "\n")
    return 0


# ----------------------------------------------------------------------

def _add_geometry_flags(sub) -> None:
    sub.add_argument("--alpha", type=_finite_float, required=True,
                     help="sharpness of the a component")
    sub.add_argument("--beta", type=_beta_flag, default="max",
                     help="sharpness of the b component, or 'max' for the saturating value")
    sub.add_argument("--eta", type=_finite_float, required=True,
                     help="angle between the a and b axes")
    sub.add_argument("--theta", type=_finite_float, default=0.0,
                     help="polar Bloch angle of the input state")
    sub.add_argument("--phi", type=_finite_float, default=0.0,
                     help="azimuthal Bloch angle of the input state")
    sub.add_argument("--degrees", action="store_true", help="interpret input angles as degrees")
    sub.add_argument("--out", default="-", help="output path, '-' for stdout")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="spinclone",
        description="Optimal joint measurement of two qubit spin components via cloning.",
    )
    subs = parser.add_subparsers(dest="command", required=True)

    p_check = subs.add_parser("check", help="run all invariant suites")
    p_check.add_argument("--trials", type=_int_in(1, MAX_TRIALS), default=200,
                         help=f"random draws per suite (1 to {MAX_TRIALS})")
    p_check.add_argument("--grid", type=_int_in(1, MAX_CHECK_GRID), default=15,
                         help=f"grid steps per axis for grid suites (1 to {MAX_CHECK_GRID})")
    p_check.add_argument("--seed", type=_int_in(0, math.inf), default=0,
                         help="random seed (a non-negative integer)")
    p_check.set_defaults(func=cmd_check)

    p_sweep = subs.add_parser("sweep", help="tabulate fidelity surfaces over (alpha, eta)")
    p_sweep.add_argument("--alpha-steps", type=_int_in(2, MAX_SWEEP_STEPS), default=41,
                         help=f"grid points in alpha (2 to {MAX_SWEEP_STEPS})")
    p_sweep.add_argument("--eta-steps", type=_int_in(2, MAX_SWEEP_STEPS), default=41,
                         help=f"grid points in eta (2 to {MAX_SWEEP_STEPS})")
    p_sweep.add_argument("--eta-min", type=_finite_float, default=0.0)
    p_sweep.add_argument("--eta-max", type=_finite_float, default=math.pi)
    p_sweep.add_argument("--beta", type=_beta_flag, default="max",
                         help="'max' (saturating) or a fixed numeric sharpness")
    p_sweep.add_argument("--quad-res", type=_int_in(1, MAX_QUAD_RES),
                         default=fidelity.DEFAULT_RESOLUTION,
                         help=f"cos(theta) nodes for f_av, f_m (1 to {MAX_QUAD_RES}); 2 is exact, "
                              "more serve convergence studies; f_a, f_b need none")
    p_sweep.add_argument("--out", required=True, help="output path, '-' for stdout")
    p_sweep.add_argument("--format", choices=("csv", "json"), default="csv")
    p_sweep.add_argument("--degrees", action="store_true")
    p_sweep.set_defaults(func=cmd_sweep)

    p_clone = subs.add_parser("clone", help="clone one pure state and print diagnostics")
    _add_geometry_flags(p_clone)
    p_clone.set_defaults(func=cmd_clone)

    p_sample = subs.add_parser("sample", help="sample joint-measurement outcomes")
    _add_geometry_flags(p_sample)
    p_sample.add_argument("--bloch-r", type=_finite_float, default=1.0,
                          help="Bloch vector length of the measured state (0 = maximally mixed)")
    p_sample.add_argument("--n", type=_int_in(1, MAX_DRAWS), required=True,
                          help=f"number of draws (1 to {MAX_DRAWS})")
    p_sample.add_argument("--seed", type=_int_in(0, math.inf), default=0,
                          help="random seed (a non-negative integer)")
    p_sample.set_defaults(func=cmd_sample)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


def entry() -> None:
    raise SystemExit(main())
