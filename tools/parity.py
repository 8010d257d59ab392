#!/usr/bin/env python3
"""Output parity: does the working tree print what a committed revision printed?

REV (default ``HEAD``) is extracted with ``git archive`` into a temporary
directory, and one fixed set of command-line invocations (``INVOCATIONS``)
runs on both trees, each in a fresh interpreter that imports the package
from that tree's ``src/``.  For each invocation the report gives byte
identity of the output, the exit codes, the largest move per numeric CSV
column, JSON leaf (list positions folded, so a sweep's leaves are its
columns) or ``check`` residual, and every changed discrepancy flag, string,
``check`` status, ``check`` line and error message.

    python tools/parity.py            # working tree against HEAD
    python tools/parity.py REV        # working tree against REV

Exit status: 0 when every invocation keeps its exit code, flags, strings,
statuses, error message and shape and no number moves by more than
``TOLERANCE``; 1 otherwise; 2 when REV cannot be extracted.  A run starts
28 interpreters and takes about ten seconds, so it is not part of the
tier-1 suite; ``tests/test_parity.py`` tests the comparison functions.
Standard library only.
"""

from __future__ import annotations

import csv
import io
import json
import math
import os
import re
import subprocess
import sys
import tarfile
import tempfile
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

#: Largest number move that still counts as parity (the golden file's bound)
TOLERANCE = 1e-13

_SWEEP_5 = ["sweep", "--alpha-steps", "5", "--eta-steps", "5"]

#: (name, arguments, output kind); sweep, clone and sample write to a file, check to stdout
INVOCATIONS = (
    ("sweep default csv", ["sweep"], "csv"),
    ("sweep default json", ["sweep", "--format", "json"], "json"),
    ("sweep 9x9 res 64", ["sweep", "--alpha-steps", "9", "--eta-steps", "9", "--quad-res", "64"],
     "csv"),
    ("sweep 5x5 res 1", [*_SWEEP_5, "--quad-res", "1"], "csv"),
    ("sweep fixed beta", [*_SWEEP_5, "--beta", "0.5"], "csv"),
    ("clone 0.6 at 90 deg", ["clone", "--alpha", "0.6", "--eta", "90", "--degrees"], "json"),
    ("clone 0.85 tilted", ["clone", "--alpha", "0.85", "--eta", "2.4", "--theta", "1.1",
                           "--phi", "0.7"], "json"),
    ("clone 1 at pi", ["clone", "--alpha", "1", "--eta", repr(math.pi), "--theta", "0.5"],
     "json"),
    ("sample pure", ["sample", "--alpha", "0.6", "--eta", "90", "--degrees", "--n", "100000",
                     "--seed", "3"], "json"),
    ("sample mixed", ["sample", "--alpha", "0.3", "--eta", "1.2", "--bloch-r", "0.4",
                      "--theta", "0.5", "--n", "1000", "--seed", "7"], "json"),
    *((f"check seed {seed}", ["check", "--seed", str(seed)], "check") for seed in range(3)),
    ("check small grid", ["check", "--trials", "50", "--grid", "7", "--seed", "3"], "check"),
)


@dataclass
class Diff:
    """What changed between two outputs of one invocation."""

    moves: dict[str, float] = field(default_factory=dict)  # largest move per column or leaf
    flags: list[str] = field(default_factory=list)  # changed flags, strings and statuses
    lines: list[str] = field(default_factory=list)  # changed check lines
    shape: list[str] = field(default_factory=list)  # changed headers, keys or lengths

    def move(self, key: str, old: float, new: float) -> None:
        """Record |new - old| under key: 0 for equal values and for two NaNs, inf for one NaN."""
        if old == new or (math.isnan(old) and math.isnan(new)):
            step = 0.0
        elif math.isnan(old) or math.isnan(new):
            step = math.inf
        else:
            step = abs(new - old)
        self.moves[key] = max(self.moves.get(key, 0.0), step)

    @property
    def worst(self) -> tuple[str, float]:
        return max(self.moves.items(), key=lambda item: item[1], default=("", 0.0))

    @property
    def failed(self) -> bool:
        return bool(self.flags or self.shape) or self.worst[1] > TOLERANCE


def compare_csv(old: str, new: str) -> Diff:
    """Compare two sweep CSV texts column by column; the flags column is compared as text."""
    diff = Diff()
    old_rows = list(csv.reader(io.StringIO(old, newline="")))
    new_rows = list(csv.reader(io.StringIO(new, newline="")))
    if not old_rows or not new_rows or old_rows[0] != new_rows[0]:
        diff.shape.append("header changed")
        return diff
    if len(old_rows) != len(new_rows):
        diff.shape.append(f"{len(old_rows) - 1} rows -> {len(new_rows) - 1} rows")
    header = old_rows[0]
    for number, (was, now) in enumerate(zip(old_rows[1:], new_rows[1:]), 1):
        for column, a, b in zip(header, was, now):
            if column == "discrepancy_flags":
                if a != b:
                    diff.flags.append(f"row {number} {column}: {a!r} -> {b!r}")
            else:
                diff.move(column, float(a), float(b))
    return diff


def compare_json(old: str, new: str) -> Diff:
    """Compare two JSON texts leaf by leaf; null stands for a non-finite number."""
    diff = Diff()

    def walk(path: str, a, b) -> None:
        numeric = (int, float, type(None))
        if isinstance(a, dict) and isinstance(b, dict):
            if list(a) != list(b):
                diff.shape.append(f"{path or '.'}: keys changed")
            for key in [key for key in a if key in b]:
                walk(f"{path}.{key}", a[key], b[key])
        elif isinstance(a, list) and isinstance(b, list):
            if len(a) != len(b):
                diff.shape.append(f"{path}[]: length {len(a)} -> {len(b)}")
            for x, y in zip(a, b):
                walk(path + "[]", x, y)
        elif (isinstance(a, numeric) and isinstance(b, numeric)
              and not isinstance(a, bool) and not isinstance(b, bool)):
            diff.move(path, math.nan if a is None else a, math.nan if b is None else b)
        elif a != b:
            diff.flags.append(f"{path}: {a!r} -> {b!r}")

    walk("", json.loads(old), json.loads(new))
    return diff


_CHECK_LINE = re.compile(r"(ok  |FAIL)  (.*?)\s+residual\s+(\S+)\s")


def compare_check(old: str, new: str) -> Diff:
    """Compare two ``check`` reports: residuals move per suite, status and summary changes flag."""
    diff = Diff()
    old_lines, new_lines = old.splitlines(), new.splitlines()
    if len(old_lines) != len(new_lines):
        diff.shape.append(f"{len(old_lines)} lines -> {len(new_lines)} lines")
    for a, b in zip(old_lines, new_lines):
        if a == b:
            continue
        diff.lines.append(f"- {a}\n  + {b}")
        was, now = _CHECK_LINE.match(a), _CHECK_LINE.match(b)
        if was and now and was[2] == now[2]:
            diff.move(was[2], float(was[3]), float(now[3]))
            if was[1] != now[1]:
                diff.flags.append(f"{was[2]}: {was[1].strip()} -> {now[1].strip()}")
        else:
            diff.flags.append(f"line changed: {a!r} -> {b!r}")
    return diff


COMPARE = {"csv": compare_csv, "json": compare_json, "check": compare_check}


def run(tree: Path, args: list[str], kind: str, work: Path) -> tuple[int, str | None, str]:
    """One invocation on one tree: (exit code, output text or None if none written, stderr)."""
    out = work / "out"
    out.unlink(missing_ok=True)
    argv = args if kind == "check" else [*args, "--out", str(out)]
    env = dict(os.environ, PYTHONDONTWRITEBYTECODE="1",
               PYTHONPATH=os.pathsep.join(filter(None, [str(tree / "src"),
                                                        os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-m", "spinclone", *argv], cwd=work, env=env,
                          capture_output=True, text=True)
    if kind == "check":
        return proc.returncode, proc.stdout, proc.stderr
    return proc.returncode, out.read_bytes().decode() if out.exists() else None, proc.stderr


def extract(rev: str, dest: Path) -> None:
    """Write the files of revision rev into dest, as ``git archive`` gives them."""
    archive = subprocess.run(["git", "-C", str(ROOT), "archive", "--format=tar", rev],
                             capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        if hasattr(tarfile, "data_filter"):
            tar.extractall(dest, filter="data")
        else:
            tar.extractall(dest)


def report(name: str, old: tuple, new: tuple, kind: str) -> bool:
    """Print one invocation's comparison; True if it breaks parity."""
    (old_code, old_text, old_err), (new_code, new_text, new_err) = old, new
    diff = Diff()
    if (old_text is None) != (new_text is None):
        diff.shape.append("output written by one tree only")
    elif old_text is not None and old_text != new_text:
        diff = COMPARE[kind](old_text, new_text)
    if old_err != new_err:
        diff.flags.append(f"stderr: {old_err.strip()!r} -> {new_err.strip()!r}")
    changed_code = old_code != new_code
    same = old_text == new_text and old_err == new_err
    key, worst = diff.worst
    line = f"{name:<20} {'identical' if same else 'differs  '}  exit {old_code}/{new_code}"
    if not same:
        line += f"  max move {worst:.1e}" + (f" ({key})" if worst else "")
        line += f"  flags changed {len(diff.flags)}"
    print(line)
    for column, step in diff.moves.items():
        if step:
            print(f"    move {step:.1e}  {column}")
    for text in (*diff.shape, *diff.flags[:10], *diff.lines[:10]):
        print("    " + text)
    return changed_code or diff.failed


def main(argv: list[str]) -> int:
    rev = argv[0] if argv else "HEAD"
    with tempfile.TemporaryDirectory(prefix="spinclone-parity-") as tmp:
        base, work = Path(tmp) / "base", Path(tmp) / "work"
        base.mkdir()
        work.mkdir()
        try:
            extract(rev, base)
        except subprocess.CalledProcessError as exc:
            print(f"cannot extract {rev}: {exc.stderr.decode().strip()}", file=sys.stderr)
            return 2
        print(f"parity of the working tree against {rev} (tolerance {TOLERANCE:.0e})")
        broken = [name for name, args, kind in INVOCATIONS
                  if report(name, run(base, args, kind, work), run(ROOT, args, kind, work), kind)]
    print(f"{len(INVOCATIONS) - len(broken)}/{len(INVOCATIONS)} invocations keep parity"
          + (f"; broken: {', '.join(broken)}" if broken else ""))
    return 1 if broken else 0


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
