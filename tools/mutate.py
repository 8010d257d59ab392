#!/usr/bin/env python3
"""Mutation probe: does the tier-1 suite notice a one-line fault in the package?

Each catalogue entry is a mutant: a module of ``src/spinclone``, a text that
occurs exactly once in ``src/`` and the text that replaces it.  For each
mutant the repository is copied to a temporary directory, the replacement
is made in the copy, and the tier-1 suite runs on the copy with ``-x``, less
``GUARD_TEST``, which fails on every applied mutant.  The mutant is killed
when a remaining test fails and survives when they all pass; the first
failing test is printed.  The working tree is only read.

    python tools/mutate.py              # every mutant in the catalogue
    python tools/mutate.py NAME [...]   # the named mutants

Mutants run one at a time, each taking 2-60 s, so the probe is not part of
the tier-1 suite; ``tests/test_source.py`` checks only that every entry
still applies.  Exit status: 0 if every mutant run was killed, 1 if any
survived, 2 for an unknown name.  Standard library only.
"""

from __future__ import annotations

import os
import shutil
import subprocess
import sys
import tempfile
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: (name, module under src/spinclone, old text, new text)
CATALOGUE = (
    # The clone machine
    ("clone-sign-flipped", "cloner.py",
     "_CLONE_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])",
     "_CLONE_SIGNS = np.array([1.0, -1.0, -1.0, -1.0])"),
    ("clone-signs-all-plus", "cloner.py",
     "_CLONE_SIGNS = np.array([1.0, 1.0, -1.0, -1.0])",
     "_CLONE_SIGNS = np.array([1.0, 1.0, 1.0, 1.0])"),
    ("clone-amplitudes-conjugated", "cloner.py",
     "lambdas = p_dag @ joint", "lambdas = p_dag.conj() @ joint"),
    ("machine-p-clamp-1e-6", "cloner.py",
     "p = 0.0 if g.p < DEGENERATE_TOL else 1.0 if 1.0 - g.p < DEGENERATE_TOL else g.p",
     "p = 0.0 if g.p < 1e-6 else 1.0 if 1.0 - g.p < 1e-6 else g.p"),
    ("frame-map-chi-negated", "cloner.py",
     "chi = cmath.phase(_dot(b, f))", "chi = -cmath.phase(_dot(b, f))"),
    ("frame-map-half-turn-reversed", "cloner.py",
     "u = cmath.exp(-0.5j * chi)", "u = cmath.exp(0.5j * chi)"),
    ("clone-isometry-b-minus", "cloner.py",
     "c00 * bp0 + c10 * bp1, c01 * bp0 + c11 * bp1", "c00 * bm0 + c10 * bm1, c01 * bm0 + c11 * bm1"),
    ("clone-isometry-sign-flipped", "cloner.py", "x0 * s_pm,", "-x0 * s_pm,"),
    ("clone-isometry-frame-check-dropped", "cloner.py",
     "c00 * v00 + c10 * v10 - 1.0, c01 * v01 + c11 * v11 - 1.0, c00 * v01 + c10 * v11", "0.0"),
    ("clone-unitary-unconjugated", "cloner.py",
     "(targets * _CLONE_SIGNS) @ mapped.conj().mT", "(targets * _CLONE_SIGNS) @ mapped.mT"),
    ("naimark-phases-unconjugated", "cloner.py",
     "products.conj(), targets", "products, targets"),
    ("canonical-k-sign-flipped", "cloner.py",
     "(prods.mT * _CLONE_SIGNS) @", "(prods.mT * -_CLONE_SIGNS) @"),
    ("canonical-selection-admits-negative-b-x", "cloner.py",
     "& ~np.signbit(b_x)", "& (b_x > -1.0)"),
    ("canonical-gram-tolerance-widened", "cloner.py",
     "factors @ factors.mT - _IDENTITY_4.real).max())",
     "factors @ factors.mT - _IDENTITY_4.real).max()) / 100.0"),
    # The qubit formulas
    ("inplane-pair-minus-flipped", "linalg.py",
     "return (c, s), (-s, c)", "return (c, s), (s, -c)"),
    ("clone-bloch-y-flipped", "linalg.py", "2.0 * r10.imag", "-2.0 * r10.imag"),
    ("clone-mixed-rho-b-block", "linalg.py",
     "r[1][0] + r[3][2], r[1][1] + r[3][3]", "r[1][0] + r[3][1], r[1][1] + r[3][3]"),
    ("born-y-flipped", "linalg.py",
     "return (r01 + r10).real, (r10 - r01).imag", "return (r01 + r10).real, (r01 - r10).imag"),
    ("vector-shape-guard-ndim", "linalg.py", "if x.shape != (3,):", "if x.ndim != 1:"),
    ("state-shape-guard-ndim", "linalg.py", "if psi.shape != (dim,):", "if psi.ndim != 1:"),
    ("density-shape-guard-ndim", "linalg.py",
     "if rho.shape != (dim, dim):", "if rho.ndim != 2:"),
    # The measurement
    ("born-axis-sign", "measurement.py",
     "(trace + _dot(n, c))", "(trace - _dot(n, c))"),
    ("beta-max-alpha-guard-widened", "measurement.py",
     "if not 0.0 <= alpha <= 1.0 + ATOL:", "if not 0.0 <= alpha <= 1.000001 + ATOL:"),
    ("beta-max-cross-scaled", "measurement.py",
     "cross = (alpha * math.sin(eta)) ** 2", "cross = (alpha * math.sin(eta)) ** 2 * (1 + 1e-7)"),
    ("degenerate-tol-1e-6", "measurement.py", "DEGENERATE_TOL = 1e-12", "DEGENERATE_TOL = 1e-6"),
    ("saturation-tol-1e-3", "measurement.py", "SATURATION_TOL = 1e-9", "SATURATION_TOL = 1e-3"),
    ("sample-labels-reversed", "measurement.py",
     "dict(zip(OUTCOME_LABELS, counts.tolist()))",
     "dict(zip(OUTCOME_LABELS[::-1], counts.tolist()))"),
    ("chi2-sf-dof2-rate", "measurement.py",
     "return math.exp(-x / 2)", "return math.exp(-x / 3)"),
    ("chi2-sf-dof3-term", "measurement.py",
     "math.sqrt(2 * x / math.pi)", "math.sqrt(x / math.pi)"),
    # The fidelities
    ("f-av-closed-coefficient", "fidelity.py",
     "alpha * beta / 12.0 * cos ** 2", "alpha * beta / 11.0 * cos ** 2"),
    ("f-b-closed-coefficient", "fidelity.py",
     "f_b = 0.5 + beta / 6.0", "f_b = 0.5 + beta / 7.0"),
    ("f-ma-closed-coefficient", "fidelity.py",
     "0.5 + alpha / 6.0, f_b, f_m]", "0.5 + alpha / 7.0, f_b, f_m]"),
    ("f-m-closed-cos-term-sign", "fidelity.py",
     "(2.0 * p - 1.0) * cos / 12.0", "(1.0 - 2.0 * p) * cos / 12.0"),
    ("closed-forms-shared-term", "fidelity.py",
     "beta * root_a * sin", "beta * root_b * sin"),
    ("universal-baseline-constant", "fidelity.py",
     "return 25.0 / 36.0,", "return 26.0 / 36.0,"),
    ("f-m-scaled", "fidelity.py",
     "f_m = np.sum(np.abs(branches) ** 2, axis=2)",
     "f_m = np.sum(np.abs(branches) ** 2, axis=2) * (1 + 1e-7)"),
    ("trace-line-constant", "fidelity.py", "(1.0 / 3.0 + np.sum", "(1.0 / 4.0 + np.sum"),
    ("trace-line-subscripts-swapped", "fidelity.py",
     '("gaba->gb", "gabb->ga")', '("gabb->ga", "gaba->gb")'),
    ("phi-nodes-halved", "fidelity.py", "n_phi = 2 * resolution", "n_phi = resolution"),
    ("grid-resolution-guard-0", "fidelity.py", "if resolution < 1:", "if resolution < 0:"),
    ("singular-flag-dropped", "fidelity.py",
     "bad = ~np.isfinite(closed[:3]) | (", "bad = ("),
    ("discrepancy-tol-inf", "fidelity.py",
     "DISCREPANCY_TOL = 1e-6", "DISCREPANCY_TOL = float('inf')"),
    ("orthonormality-tol-1e-2", "cloner.py",
     "ORTHONORMALITY_TOL = 1e-10", "ORTHONORMALITY_TOL = 1e-2"),
    # The command line
    ("size-bound-off-by-one", "cli.py",
     "if not low <= value <= high:", "if not low <= value <= high + 1:"),
    ("sweep-steps-bound-40", "cli.py", "MAX_SWEEP_STEPS = 201", "MAX_SWEEP_STEPS = 40"),
    ("quad-res-bound-32", "cli.py", "MAX_QUAD_RES = 256", "MAX_QUAD_RES = 32"),
    ("csv-16-digits", "cli.py", '_CSV_ROW = "%.17g,"', '_CSV_ROW = "%.16g,"'),
    ("sweep-column-index-swapped", "fidelity.py",
     "av_q, av_c, m_q, a_q, a_c, b_c", "av_q, av_c, m_q, a_c, a_q, b_c"),
    ("sweep-flags-dropped", "cli.py", 'map(";".join, names)', '("" for _ in names)'),
    ("sweep-eta-range-widened", "cli.py",
     "-1e-9 <= self.eta_min <= self.eta_max <= math.pi + 1e-9",
     "-1.0 <= self.eta_min <= self.eta_max <= math.pi + 1.0"),
    ("sweep-steps-guard-1", "cli.py",
     "if self.alpha_steps < 2 or self.eta_steps < 2:",
     "if self.alpha_steps < 1 or self.eta_steps < 1:"),
    ("number-flag-catches-type-error", "cli.py",
     "value = float(text)\n    except ValueError:", "value = float(text)\n    except TypeError:"),
    ("integer-flag-truncates", "cli.py", "value = int(text)", "value = int(float(text))"),
    ("check-closed-forms-drop-f-a", "cli.py",
     "abs(report.f_a_quad - report.f_a_closed)", "0.0"),
)

#: The tier-1 test that checks every catalogue entry still applies to ``src/``
GUARD_TEST = "tests/test_source.py::test_mutation_catalogue_applies_to_the_source"

_SKIP = shutil.ignore_patterns(".git", "__pycache__", ".pytest_cache", ".hypothesis",
                               ".bench_work", "*.egg-info")


def run_mutant(name: str, module: str, old: str, new: str) -> tuple[bool, str]:
    """Apply one mutant to a copy of the repository and run tier-1 there: (killed, detail)."""
    with tempfile.TemporaryDirectory(prefix="spinclone-mutant-") as tmp:
        tree = Path(tmp) / "repo"
        shutil.copytree(ROOT, tree, ignore=_SKIP)
        path = tree / "src" / "spinclone" / module
        text = path.read_text()
        if text.count(old) != 1:
            raise ValueError(f"{name}: old text occurs {text.count(old)} times in {module}")
        path.write_text(text.replace(old, new))
        env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
                   PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"),
                                                            os.environ.get("PYTHONPATH")])))
        command = [sys.executable, "-m", "pytest", "-x", "-q", "-p", "no:cacheprovider",
                   "--deselect", GUARD_TEST]
        proc = subprocess.run(command, cwd=tree, env=env, capture_output=True, text=True)
    lines = proc.stdout.splitlines()
    failed = [line for line in lines if line.startswith(("FAILED", "ERROR"))]
    return proc.returncode != 0, (failed or lines[-1:] or ["no output"])[0]


def main(argv: list[str]) -> int:
    entries = {entry[0]: entry for entry in CATALOGUE}
    unknown = [name for name in argv if name not in entries]
    if unknown:
        print(f"unknown mutant(s): {', '.join(unknown)}", file=sys.stderr)
        return 2
    chosen = [entries[name] for name in argv] if argv else list(CATALOGUE)
    survivors = []
    for entry in chosen:
        start = time.perf_counter()
        killed, detail = run_mutant(*entry)
        verdict = "killed  " if killed else "SURVIVED"
        print(f"{verdict} {entry[0]:<30} {time.perf_counter() - start:5.1f} s  {detail}",
              flush=True)
        if not killed:
            survivors.append(entry[0])
    print(f"{len(chosen) - len(survivors)}/{len(chosen)} mutants killed"
          + (f"; survivors: {', '.join(survivors)}" if survivors else ""))
    return 1 if survivors else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
