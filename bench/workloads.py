"""Workload processes of the spinclone benchmark.

``run.py`` starts this file once per measurement, in a fresh interpreter,
so that set-up time covers the imports a user pays for.  Modes:

    setup   --workload W --seed N --size S --out F
    run     --workload W --seed N --size S --out F --seconds T [--traced]
    imports --out F
    cli-child TRACE_OUT <spinclone arguments...>

``setup`` stops where the first op would start; ``run`` goes on to
measure.  Each writes one JSON record to ``--out``.  ``cli-child`` is the
traced stand-in for ``python -m spinclone`` used by the traced ``cli``
workload.  The top-level imports are stdlib only: numpy and spinclone
are imported inside the timed set-up.
"""

from __future__ import annotations

import argparse
import csv
import hashlib
import io
import json
import math
import os
import random
import resource
import subprocess
import sys
import time
from pathlib import Path

from tracing import Tracer, origin_layer

BENCH_DIR = Path(__file__).resolve().parent

#: Workload sizes.  ``tiny`` exists for the benchmark's own test.
SIZES = {
    "full": {"grid": 41, "traced_clone_ops": 950, "edge_ops": 50, "traced_sessions": 2},
    "tiny": {"grid": 5, "traced_clone_ops": 19, "edge_ops": 5, "traced_sessions": 1},
}

PURE_PER_OP = 4
SAMPLE_DRAWS = 10_000
CLI_SAMPLE_DRAWS = 100_000
CHUNK = 256
OVERHEAD_BLOCK = 50
CHECK_TOL = 1e-10
F_B_TOL = 1e-9


_now = time.perf_counter


def _setup_elapsed() -> float:
    """Seconds since run.py spawned this process (system-wide monotonic clock)."""
    return time.monotonic() - float(os.environ["SPINBENCH_SPAWN_T"])


def _peak_rss_mb(who=resource.RUSAGE_SELF) -> float:
    return resource.getrusage(who).ru_maxrss / 1024.0


def _versions() -> dict:
    import numpy
    versions = {"numpy": numpy.__version__}
    try:
        import scipy
        versions["scipy"] = scipy.__version__
    except ImportError:
        versions["scipy"] = None
    return versions


def _trace_extras(tracer: Tracer) -> dict:
    """Observers for the counts a span cannot give: cache usefulness, flags."""
    extras = {"geometries": set(), "flagged_reports": 0}

    def on_unitary(args, _result):
        g = args[0]
        extras["geometries"].add((g.a.tobytes(), g.b.tobytes(), g.alpha, g.beta))

    def on_report(_args, result):
        if result.discrepancies:
            extras["flagged_reports"] += 1

    tracer.observe("cloner.clone_unitary", on_unitary)
    tracer.observe("fidelity.fidelity_report", on_report)
    return extras


def _trace_record(tracer: Tracer, extras: dict, root_ops) -> dict:
    summary = tracer.summary()
    by_op = summary.pop("root_s_by_op")
    return {
        **summary,
        "root_s": sum(by_op.get(op, 0.0) for op in root_ops),
        "distinct_geometries": len(extras["geometries"]),
        "flagged_reports": extras["flagged_reports"],
    }


# ----------------------------------------------------------------------
# surface: the default 41x41 sweep, in process, one op per row


class Surface:
    def __init__(self, seed: int, size: dict, work: Path):
        from spinclone import cli, fidelity, measurement
        self.cli, self.fidelity, self.measurement = cli, fidelity, measurement
        self.seed = seed
        self.grid = size["grid"]
        self.out = work / "sweep.csv"
        self.argv = ["sweep", "--out", str(self.out)]
        if self.grid != 41:
            self.argv += ["--alpha-steps", str(self.grid), "--eta-steps", str(self.grid)]
        self.rows = self.grid * self.grid

    def sizes(self) -> dict:
        return {"grid": f"{self.grid}x{self.grid}", "rows_per_pass": self.rows,
                "resolution": self.fidelity.DEFAULT_RESOLUTION}

    def _pass(self, tracer: Tracer | None = None):
        """One sweep; returns exit code, per-row seconds and the CSV bytes.

        A row ends when its ``fidelity_report`` returns, so the stamps
        split the pass into rows; the last row also carries rendering and
        writing.  If the sweep stops calling ``fidelity_report`` once per
        row, every row gets the pass's mean row time instead.
        """
        stamps = []
        report = self.fidelity.fidelity_report

        def stamped(*args, **kwargs):
            result = report(*args, **kwargs)
            stamps.append(_now())
            if tracer is not None:
                tracer.op = len(stamps)
            return result

        self.fidelity.fidelity_report = stamped
        try:
            t0 = _now()
            code = self.cli.main(self.argv)
            t1 = _now()
        finally:
            self.fidelity.fidelity_report = report
        if len(stamps) == self.rows:
            bounds = [t0, *stamps[:-1], t1]
            row_s = [b - a for a, b in zip(bounds, bounds[1:])]
        else:
            row_s = [(t1 - t0) / self.rows] * self.rows
        return code, row_s, self.out.read_bytes()

    def _check_csv(self, data: bytes):
        """Rows that fail a check, plus the parsed rows and flagged-row count."""
        rows = list(csv.DictReader(io.StringIO(data.decode())))
        bad = abs(self.rows - len(rows))
        flagged = 0
        for row in rows:
            if float(row["f_m_quad"]) > float(row["f_av_quad"]) + CHECK_TOL:
                bad += 1
            flagged += bool(row["discrepancy_flags"])
        return bad, rows, flagged

    def _check_f_b(self, rows) -> int:
        """Recompute sampled rows' f_b by quadrature; count |f_b_quad - f_b_closed| misses."""
        if not rows:
            return 0
        picks = random.Random(self.seed).sample(range(len(rows)), min(self.grid, len(rows)))
        bad = 0
        for i in picks:
            row = rows[i]
            g = self.measurement.geometry_from_angles(
                float(row["alpha"]), float(row["beta"]), float(row["eta"]))
            rep = self.fidelity.fidelity_report(g)
            bad += abs(rep.f_b_quad - float(row["f_b_closed"])) > F_B_TOL
        return bad

    def run(self, seconds: float) -> dict:
        op_s, passes, failed, first, first_rows, flagged = [], [], 0, None, [], 0
        start = _now()
        while len(passes) < 2 or _now() - start < seconds:
            code, row_s, data = self._pass()
            op_s.extend(row_s)
            passes.append(sum(row_s))
            if code != 0:
                failed += self.rows
            elif first is None:
                first = data
                bad, first_rows, flagged = self._check_csv(data)
                failed += bad
            elif data != first:
                failed += self.rows
        failed += self._check_f_b(first_rows)
        return {"op_s": op_s, "pass_s": passes,
                "attempted": self.rows * len(passes), "failed": failed,
                "flagged_rows": flagged, "bytes_out": len(first or b""),
                "csv_sha256": hashlib.sha256(first or b"").hexdigest()}

    def run_traced(self, tracer: Tracer) -> dict:
        """A traced pass between an untraced warm-up pass and an untraced pass.

        The first pass in a process runs slower throughout, so it is kept
        out of the traced-versus-untraced comparison.
        """
        extras = _trace_extras(tracer)
        self._pass()
        tracer.op = 0
        tracer.install()
        try:
            code, row_s, data = self._pass(tracer)
        finally:
            tracer.uninstall()
        _code, untraced_s, _data = self._pass()
        bad, _rows, _flagged = self._check_csv(data) if code == 0 else (self.rows, [], 0)
        record = _trace_record(tracer, extras, range(self.rows))
        record.update(op_s=row_s, untraced_op_s=untraced_s, bytes_out=len(data),
                      attempted=self.rows, failed=bad,
                      csv_sha256=hashlib.sha256(data).hexdigest())
        return record


# ----------------------------------------------------------------------
# clone: seeded library stream, one op per geometry


class Clone:
    def __init__(self, seed: int, size: dict, work: Path):
        import numpy as np
        from spinclone import cloner, measurement
        self.np, self.cloner, self.measurement = np, cloner, measurement
        self.seed = seed
        self.size = size
        self._chunks: dict[tuple, list] = {}
        self.inputs(0)

    def sizes(self) -> dict:
        return {"pure_clones_per_op": PURE_PER_OP, "mixed_clones_per_op": 1,
                "sample_draws_per_op": SAMPLE_DRAWS, "edge_ops": self.size["edge_ops"],
                "traced_ops": self.size["traced_clone_ops"]}

    def _generate(self, chunk: int, edge: bool) -> list:
        """One chunk of op inputs: random SO(3) frame, Haar states, a mixed state.

        Edge inputs put the axes parallel or antiparallel to within
        1e-12..1e-6 rad, with alpha in {0, 1}.
        """
        np = self.np
        rng = np.random.default_rng([self.seed, chunk, int(edge)])
        q = rng.normal(size=(CHUNK, 4))
        q /= np.linalg.norm(q, axis=1, keepdims=True)
        w, x, y, z = q.T
        rot = np.stack([
            np.stack([1 - 2 * (y * y + z * z), 2 * (x * y - w * z), 2 * (x * z + w * y)], -1),
            np.stack([2 * (x * y + w * z), 1 - 2 * (x * x + z * z), 2 * (y * z - w * x)], -1),
            np.stack([2 * (x * z - w * y), 2 * (y * z + w * x), 1 - 2 * (x * x + y * y)], -1),
        ], 1)
        if edge:
            alpha = rng.choice([0.0, 1.0], size=CHUNK)
            delta = 10.0 ** rng.uniform(-12.0, -6.0, size=CHUNK)
            eta = np.where(rng.random(CHUNK) < 0.5, delta, np.pi - delta)
        else:
            alpha = rng.uniform(0.0, 1.0, size=CHUNK)
            eta = np.arccos(rng.uniform(-1.0, 1.0, size=CHUNK))
        a = rot[:, :, 2]
        b = np.sin(eta)[:, None] * rot[:, :, 0] + np.cos(eta)[:, None] * rot[:, :, 2]
        shape = (CHUNK, PURE_PER_OP, 2)
        raw = rng.normal(size=shape) + 1j * rng.normal(size=shape)
        states = raw / np.linalg.norm(raw, axis=2, keepdims=True)
        direction = rng.normal(size=(CHUNK, 3))
        direction /= np.linalg.norm(direction, axis=1, keepdims=True)
        bloch = direction * rng.uniform(0.0, 1.0, size=(CHUNK, 1)) ** (1.0 / 3.0)
        seeds = rng.integers(0, 2**31, size=CHUNK)
        out = []
        for i in range(CHUNK):
            c = bloch[i]
            rho = 0.5 * np.array([[1 + c[2], c[0] - 1j * c[1]], [c[0] + 1j * c[1], 1 - c[2]]])
            eta_ab = float(np.arccos(np.clip(a[i] @ b[i], -1.0, 1.0)))
            out.append((a[i], b[i], float(alpha[i]), eta_ab, states[i], rho, c, int(seeds[i])))
        return out

    def inputs(self, i: int, edge: bool = False):
        """Inputs of op i; one chunk of each kind is kept, so memory stays flat."""
        key = (edge, i // CHUNK)
        if key not in self._chunks:
            self._chunks = {k: v for k, v in self._chunks.items() if k[0] != edge}
            self._chunks[key] = self._generate(i // CHUNK, edge)
        return self._chunks[key][i % CHUNK]

    def op(self, inp):
        a, b, alpha, eta, states, rho, _c, seed = inp
        beta = self.measurement.beta_max(alpha, eta)
        g = self.measurement.build_geometry(a, b, alpha, beta)
        pure = [self.cloner.clone_pure(g, psi) for psi in states]
        mixed = self.cloner.clone_mixed(g, rho)
        counts = self.measurement.sample_outcomes(rho, g, SAMPLE_DRAWS, seed=seed)
        return beta, pure, mixed, counts

    def check(self, inp, result) -> bool:
        """Born distribution and alpha/beta Bloch transfer, from the bench's own formulas."""
        np = self.np
        a, b, alpha, _eta, states, _rho, c_mixed, _seed = inp
        beta, pure, mixed, counts = result
        s, d = alpha * a + beta * b, alpha * a - beta * b
        ns, nd = np.linalg.norm(s), np.linalg.norm(d)

        def born(c):
            return np.array([ns + s @ c, nd + d @ c, nd - d @ c, ns - s @ c]) / 4.0

        def transfer_ok(out, c):
            return (abs(a @ out.bloch_a - alpha * (a @ c)) <= CHECK_TOL
                    and abs(b @ out.bloch_b - beta * (b @ c)) <= CHECK_TOL)

        for psi, out in zip(states, pure):
            cross = psi[0].conjugate() * psi[1]
            c = np.array([2 * cross.real, 2 * cross.imag, abs(psi[0]) ** 2 - abs(psi[1]) ** 2])
            if np.max(np.abs(out.probabilities - born(c))) > CHECK_TOL or not transfer_ok(out, c):
                return False
        p_mixed = born(c_mixed)
        if (np.max(np.abs(mixed.probabilities - p_mixed)) > CHECK_TOL
                or not transfer_ok(mixed, c_mixed)):
            return False
        drawn = np.array(list(counts.values()), dtype=float)
        spread = 6.0 * np.sqrt(SAMPLE_DRAWS * p_mixed * (1 - p_mixed)) + 1.0
        return (len(drawn) == 4 and drawn.sum() == SAMPLE_DRAWS and drawn.min() >= 0
                and np.all(np.abs(drawn - SAMPLE_DRAWS * p_mixed) <= spread))

    def _timed(self, inp, errors: dict):
        """Run and check one op; return (seconds, ok)."""
        t0 = _now()
        try:
            result = self.op(inp)
        except Exception as exc:  # a raised op is a failed op; tally it by class and layer
            dt = _now() - t0
            key = f"{origin_layer(exc)}.{type(exc).__name__}"
            errors[key] = errors.get(key, 0) + 1
            return dt, False
        dt = _now() - t0
        ok = self.check(inp, result)
        if not ok:
            errors["bench.CheckFailed"] = errors.get("bench.CheckFailed", 0) + 1
        return dt, ok

    def _edge(self, tracer: Tracer | None, first_op: int) -> dict:
        errors: dict[str, int] = {}
        failed = 0
        for i in range(self.size["edge_ops"]):
            if tracer is not None:
                tracer.op = first_op + i
            _dt, ok = self._timed(self.inputs(i, edge=True), errors)
            failed += not ok
        return {"attempted": self.size["edge_ops"], "failed": failed, "errors": errors}

    def run(self, seconds: float) -> dict:
        op_s, failed, errors = [], 0, {}
        start = _now()
        i = 0
        while i == 0 or _now() - start < seconds:
            dt, ok = self._timed(self.inputs(i), errors)
            op_s.append(dt)
            failed += not ok
            i += 1
        return {"op_s": op_s, "attempted": len(op_s), "failed": failed,
                "errors": errors, "edge": self._edge(None, 0)}

    def run_traced(self, tracer: Tracer) -> dict:
        """Blocks of traced ops alternate with as many untraced ones, then the edge slice."""
        extras = _trace_extras(tracer)
        n = self.size["traced_clone_ops"]
        traced_s, untraced_s, traced_ops, failed, errors = [], [], [], 0, {}
        i = 0
        while len(traced_s) < n:
            size = min(OVERHEAD_BLOCK, n - len(traced_s))
            tracer.install()
            try:
                for _ in range(size):
                    tracer.op = i
                    dt, ok = self._timed(self.inputs(i), errors)
                    traced_s.append(dt)
                    traced_ops.append(i)
                    failed += not ok
                    i += 1
            finally:
                tracer.uninstall()
            for _ in range(size):
                dt, ok = self._timed(self.inputs(i), errors)
                untraced_s.append(dt)
                failed += not ok
                i += 1
        tracer.install()
        try:
            edge = self._edge(tracer, i)
        finally:
            tracer.uninstall()
        record = _trace_record(tracer, extras, traced_ops)
        record.update(op_s=traced_s, untraced_op_s=untraced_s, attempted=i, failed=failed,
                      bytes_out=0, edge=edge)
        return record


# ----------------------------------------------------------------------
# cli: a user session in fresh processes, one child at a time


def session_args(seed: int, i: int) -> tuple[list[str], list[str]]:
    """Arguments of the clone and sample calls of session i."""
    rng = random.Random(seed * 1_000_003 + i)

    def geometry_and_state() -> list[str]:
        return ["--alpha", repr(rng.random()), "--eta", repr(rng.uniform(0.0, math.pi)),
                "--theta", repr(rng.uniform(0.0, math.pi)),
                "--phi", repr(rng.uniform(0.0, 2 * math.pi))]

    clone = ["clone", *geometry_and_state()]
    sample = ["sample", *geometry_and_state(), "--bloch-r", repr(rng.random()),
              "--n", str(CLI_SAMPLE_DRAWS), "--seed", str(rng.randrange(2**31))]
    return clone, sample


class Cli:
    def __init__(self, seed: int, size: dict, work: Path):
        from spinclone import cli
        self.cli = cli
        self.seed = seed
        self.size = size
        self.work = work
        self.sessions = [session_args(seed, i) for i in range(64)]

    def sizes(self) -> dict:
        return {"calls_per_session": ["clone", "sample"], "sample_draws": CLI_SAMPLE_DRAWS,
                "traced_sessions": self.size["traced_sessions"]}

    def _args(self, i: int):
        while i >= len(self.sessions):
            self.sessions.append(session_args(self.seed, len(self.sessions)))
        return self.sessions[i]

    def _reference(self, argv: list[str]):
        path = self.work / "reference.json"
        if self.cli.main(argv + ["--out", str(path)]) != 0:
            return None
        return json.loads(path.read_text())

    def _call(self, argv: list[str], trace_out: Path | None):
        if trace_out is None:
            cmd = [sys.executable, "-m", "spinclone", *argv]
        else:
            cmd = [sys.executable, str(BENCH_DIR / "workloads.py"), "cli-child",
                   str(trace_out), *argv]
        t0 = _now()
        proc = subprocess.run(cmd, capture_output=True, timeout=60)
        dt = _now() - t0
        try:
            ok = proc.returncode == 0 and json.loads(proc.stdout) == self._reference(argv)
        except ValueError:
            ok = False
        return dt, ok, len(proc.stdout)

    def _session(self, i: int, trace_dir: Path | None):
        calls = []
        for k, argv in enumerate(self._args(i)):
            trace_out = None if trace_dir is None else trace_dir / f"{i}-{k}.json"
            calls.append(self._call(argv, trace_out))
        (clone_s, clone_ok, clone_b), (sample_s, sample_ok, sample_b) = calls
        return clone_s, sample_s, clone_ok and sample_ok, clone_b + sample_b

    def run(self, seconds: float) -> dict:
        op_s, clone_s, sample_s, failed = [], [], [], 0
        start = _now()
        i = 0
        while i == 0 or _now() - start < seconds:
            c, s, ok, _bytes = self._session(i, None)
            op_s.append(c + s)
            clone_s.append(c)
            sample_s.append(s)
            failed += not ok
            i += 1
        return {"op_s": op_s, "clone_s": clone_s, "sample_s": sample_s,
                "attempted": len(op_s), "failed": failed,
                "children_peak_rss_mb": _peak_rss_mb(resource.RUSAGE_CHILDREN)}

    def run_traced(self, _tracer: Tracer) -> dict:
        """Traced sessions, each followed by an untraced one."""
        n = self.size["traced_sessions"]
        trace_dir = self.work / "traces"
        trace_dir.mkdir(exist_ok=True)
        op_s, untraced_s, failed, bytes_out = [], [], 0, 0
        for i in range(n):
            c, s, ok, nbytes = self._session(2 * i, trace_dir)
            op_s.append(c + s)
            failed += not ok
            bytes_out += nbytes
            c, s, ok, _nbytes = self._session(2 * i + 1, None)
            untraced_s.append(c + s)
            failed += not ok
        functions, errors, root_s, geometries, flagged = {}, {}, 0.0, 0, 0
        for path in sorted(trace_dir.glob("*.json")):
            child = json.loads(path.read_text())
            for name, (calls, total, self_s) in child["functions"].items():
                row = functions.setdefault(name, [0, 0.0, 0.0])
                row[0] += calls
                row[1] += total
                row[2] += self_s
            for key, count in child["errors"].items():
                errors[key] = errors.get(key, 0) + count
            root_s += child["root_s"]
            geometries += child["distinct_geometries"]
            flagged += child["flagged_reports"]
        return {"functions": functions, "errors": errors, "op_s": op_s,
                "untraced_op_s": untraced_s, "root_s": root_s,
                "distinct_geometries": geometries, "flagged_reports": flagged,
                "bytes_out": bytes_out, "attempted": 2 * n, "failed": failed}


def cli_child(trace_out: str, argv: list[str]) -> int:
    """Traced equivalent of ``python -m spinclone ARGV``."""
    from spinclone import cli
    tracer = Tracer()
    extras = _trace_extras(tracer)
    tracer.op = 0
    tracer.install()
    try:
        code = cli.main(argv)
    finally:
        tracer.uninstall()
        sys.stdout.flush()
        record = _trace_record(tracer, extras, [0])
        Path(trace_out).write_text(json.dumps(record))
    return code


WORKLOADS = {"surface": Surface, "clone": Clone, "cli": Cli}


def main(argv=None) -> int:
    if argv is None:
        argv = sys.argv[1:]
    if argv and argv[0] == "cli-child":
        return cli_child(argv[1], argv[2:])
    parser = argparse.ArgumentParser()
    parser.add_argument("mode", choices=("setup", "run", "imports"))
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full")
    parser.add_argument("--seconds", type=float, default=1.0)
    parser.add_argument("--traced", action="store_true")
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    out = Path(args.out)

    if args.mode == "imports":
        t0 = _now()
        import spinclone  # noqa: F401
        t1 = _now()
        import spinclone.cli  # noqa: F401
        t2 = _now()
        out.write_text(json.dumps({"spinclone_import_s": t1 - t0, "cli_import_s": t2 - t0}))
        return 0

    workload = WORKLOADS[args.workload](args.seed, SIZES[args.size], out.parent)
    record = {"setup_s": _setup_elapsed()}
    if args.mode == "run":
        if args.traced:
            record.update(trace=workload.run_traced(Tracer()))
        else:
            record.update(workload.run(args.seconds))
        record.update(sizes=workload.sizes(), versions=_versions(),
                      peak_rss_mb=_peak_rss_mb())
    out.write_text(json.dumps(record))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
