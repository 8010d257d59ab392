"""spinclone benchmark: one workload per call, metrics as one JSON line.

    python3 bench/run.py --workload {surface,clone,cli} --seed N --seconds T --trace {0,1}

Run from anywhere; the package is taken from ``src/`` beside this
directory and never from an installed copy.  Every measurement runs in
a fresh interpreter (``workloads.py``): set-up is repeated in
``SETUP_REPS`` fresh processes and its median reported.  ``--trace 0``
prints the end-to-end metrics, ``--trace 1`` the per-layer metrics of a
separate traced run plus the tracing overhead.  The last line of standard
output is the result; the line before it records the environment and
the details behind the numbers.  See README.md in this directory.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
sys.path.insert(0, str(BENCH_DIR))

from tracing import layer_of  # noqa: E402
from workloads import SIZES, session_args  # noqa: E402

SETUP_REPS = {"full": 5, "tiny": 2}
PROBE_REPS = {"full": 3, "tiny": 1}
DEADLINE_S = 170.0
WINDOW_S = 0.02
WINDOW_OPS = 5
TAIL_LADDER = (95.0, 90.0, 50.0)
TAIL_BEYOND = 10
TAIL_SEGMENTS = 4
TAIL_SEGMENT_OPS = 200
BLAS_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
             "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")

LAYERS = ("fidelity", "cloner", "measurement", "linalg", "cli")
SELF_US = ("fidelity.fidelity_report", "cloner.naimark_basis", "cloner.clone_unitary",
           "cloner.clone_pure", "cloner.clone_mixed", "measurement.build_geometry",
           "measurement.sample_outcomes", "linalg.spin_eigenstates", "linalg.partial_trace")
EDGE_ERRORS = ("cloner.OrthonormalityFailure", "measurement.NonSaturating", "linalg.ValueError")


class BenchError(RuntimeError):
    """The benchmark could not produce a trustworthy result."""


class Runner:
    def __init__(self, args):
        self.args = args
        self.deadline = time.monotonic() + DEADLINE_S
        self.work = ROOT / ".bench_work" / f"{args.workload}-{os.getpid()}"
        self.env = dict(os.environ)
        self.env["PYTHONPATH"] = os.pathsep.join(
            [str(SRC)] + ([self.env["PYTHONPATH"]] if self.env.get("PYTHONPATH") else []))

    def spawn(self, cmd: list[str]) -> None:
        """Run one child to completion within the overall deadline."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError("time budget exhausted")
        env = dict(self.env, SPINBENCH_SPAWN_T=repr(time.monotonic()))
        # A session of its own, so a timeout also stops the child's children.
        proc = subprocess.Popen(cmd, env=env, cwd=ROOT, stdout=subprocess.PIPE,
                                stderr=subprocess.PIPE, start_new_session=True)
        try:
            _out, err = proc.communicate(timeout=remaining)
        except subprocess.TimeoutExpired:
            raise BenchError(f"{' '.join(cmd[1:4])} did not finish in time") from None
        finally:
            if proc.poll() is None:
                os.killpg(proc.pid, signal.SIGKILL)
                proc.communicate()
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(cmd[1:4])} exited {proc.returncode}: "
                             f"{err.decode(errors='replace')[-2000:]}")

    def child(self, mode: str, tag: str, *extra: str) -> dict:
        out = self.work / f"{tag}.json"
        a = self.args
        self.spawn([sys.executable, str(BENCH_DIR / "workloads.py"), mode,
                    "--workload", a.workload, "--seed", str(a.seed), "--size", a.size,
                    "--out", str(out), *extra])
        return json.loads(out.read_text())

    def setup_samples(self) -> list[float]:
        """Set-up times of fresh processes; the measuring process adds the last one."""
        return [self.child("setup", f"setup{k}")["setup_s"]
                for k in range(SETUP_REPS[self.args.size] - 1)]

    def measure(self) -> dict:
        return self.child("run", "run", "--seconds", repr(self.args.seconds))

    def traced(self) -> dict:
        return self.child("run", "traced", "--traced")["trace"]

    def import_probes(self) -> dict:
        samples = [self.child("imports", f"imports{k}") for k in range(PROBE_REPS[self.args.size])]
        return {key: statistics.median(s[key] for s in samples)
                for key in ("spinclone_import_s", "cli_import_s")}

    def cold_start_probes(self) -> dict:
        """Fresh ``python -m spinclone`` clone and sample calls, as in the cli workload."""
        times: dict[str, list[float]] = {"clone": [], "sample": []}
        for i in range(PROBE_REPS[self.args.size]):
            for argv in session_args(self.args.seed, i):
                t0 = time.perf_counter()
                self.spawn([sys.executable, "-m", "spinclone", *argv])
                times[argv[0]].append(time.perf_counter() - t0)
        return {k: statistics.median(v) for k, v in times.items()}


# ----------------------------------------------------------------------
# statistics


def tail(op_s: list[float]) -> tuple[float, str]:
    """Tail latency: p95, or the highest lower ladder percentile with ten samples beyond it.

    Higher percentiles are set by bursts of host interference rather than
    by the program: on the reference host the run-to-run quartile spread
    of p99 was 0.2-0.3 of its median, of p95 about 0.1.  The percentile is
    taken in each of TAIL_SEGMENTS consecutive segments of the run (when
    each holds TAIL_SEGMENT_OPS ops) and reported as their median.
    """
    n = len(op_s)
    k = TAIL_SEGMENTS if n >= TAIL_SEGMENTS * TAIL_SEGMENT_OPS else 1
    values, label = [], ""
    for i in range(k):
        ordered = sorted(op_s[i * n // k:(i + 1) * n // k])
        m = len(ordered)
        label = f"max of {m}"
        value = ordered[-1]
        for pct in TAIL_LADDER:
            if m * (100.0 - pct) / 100.0 >= TAIL_BEYOND:
                value = ordered[min(m - 1, int(pct / 100.0 * m))]
                label = f"p{pct:g} of {m}"
                break
        values.append(value)
    return statistics.median(values), f"median over {k} segment(s) of {label}"


def windows(op_s: list[float]) -> list[list[float]]:
    """Consecutive ops cut into windows of at least WINDOW_S op time and WINDOW_OPS ops."""
    out, current, total = [], [], 0.0
    for x in op_s:
        current.append(x)
        total += x
        if total >= WINDOW_S and len(current) >= WINDOW_OPS:
            out.append(current)
            current, total = [], 0.0
    if current:
        if out:
            out[-1].extend(current)
        else:
            out.append(current)
    return out


def fastest_window(op_s: list[float]) -> list[float]:
    return min(windows(op_s), key=lambda w: sum(w) / len(w))


def end_to_end(run: dict, setups: list[float], workload: str) -> tuple[dict, dict]:
    """Throughput and median from the fastest window, tail from the whole run.

    The speed of a shared host can drop by 40% for seconds to minutes at
    a time (other tenants; CPU time drops with it), so a run's overall
    median mostly measures how much of the run fell in slow stretches.
    The fastest small window of consecutive ops -- best of N, as
    ``timeit`` reports -- is far steadier from run to run.  The tail
    keeps every op.
    """
    op_s = run["op_s"]
    fastest = fastest_window(op_s)
    tail_s, tail_pct = tail(op_s)
    rss = run["children_peak_rss_mb"] if workload == "cli" else run["peak_rss_mb"]
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "throughput_ops_s": (len(fastest) / sum(fastest), "1/s"),
        "op_p50_ms": (statistics.median(fastest) * 1e3, "ms"),
        "op_tail_ms": (tail_s * 1e3, "ms"),
        "peak_rss_mb": (rss, "MB"),
    }
    details = {"ops": len(op_s), "fastest_window_ops": len(fastest),
               "tail_percentile": tail_pct, "setup_samples_s": setups,
               "overall_throughput_ops_s": len(op_s) / sum(op_s),
               "overall_p50_ms": statistics.median(op_s) * 1e3}
    return metrics, details


def per_layer(trace: dict, imports: dict, cold: dict) -> dict:
    functions = trace["functions"]
    edge = trace.get("edge", {})
    metrics: dict[str, tuple[float, str]] = {}
    for layer in LAYERS:
        rows = [v for name, v in functions.items() if layer_of(name) == layer]
        errors = sum(c for key, c in trace["errors"].items() if layer_of(key) == layer)
        metrics[f"{layer}.calls"] = (sum(r[0] for r in rows), "count")
        metrics[f"{layer}.self_s"] = (sum((r[2] for r in rows), 0.0), "s")
        metrics[f"{layer}.errors"] = (errors, "count")
    for name in SELF_US:
        calls, _total, self_s = functions.get(name, (0, 0.0, 0.0))
        metrics[f"{name}.self_us"] = (self_s / calls * 1e6 if calls else 0.0, "us")
    unitary_calls = functions.get("cloner.clone_unitary", (0,))[0]
    metrics["cloner.unitary_useful_ratio"] = (
        trace["distinct_geometries"] / unitary_calls if unitary_calls else 0.0, "ratio")
    metrics["fidelity.flagged_reports"] = (trace["flagged_reports"], "count")
    metrics["cli.bytes_out"] = (trace["bytes_out"], "count")
    metrics["spinclone.import_s"] = (imports["spinclone_import_s"], "s")
    metrics["cli.import_s"] = (imports["cli_import_s"], "s")
    metrics["cli.clone_ms"] = (cold["clone"] * 1e3, "ms")
    metrics["cli.sample_ms"] = (cold["sample"] * 1e3, "ms")
    op_s = trace["op_s"]
    fastest = fastest_window(op_s)
    traced_throughput = len(fastest) / sum(fastest)
    fastest = fastest_window(trace["untraced_op_s"])
    untraced_throughput = len(fastest) / sum(fastest)
    metrics["trace.ops"] = (len(op_s), "count")
    metrics["trace.traced_throughput_ops_s"] = (traced_throughput, "1/s")
    metrics["trace.untraced_throughput_ops_s"] = (untraced_throughput, "1/s")
    metrics["trace.overhead_ratio"] = (untraced_throughput / traced_throughput, "ratio")
    metrics["trace.unaccounted_share"] = (1.0 - trace["root_s"] / sum(op_s), "ratio")
    metrics["clone.edge_ops"] = (edge.get("attempted", 0), "count")
    metrics["clone.edge_failed"] = (edge.get("failed", 0), "count")
    edge_errors = edge.get("errors", {})
    for key in EDGE_ERRORS:
        metrics[f"edge.{key}"] = (edge_errors.get(key, 0), "count")
    metrics["edge.other"] = (
        sum(c for key, c in edge_errors.items() if key not in EDGE_ERRORS), "count")
    return metrics


# ----------------------------------------------------------------------
# environment


def environment(args, versions: dict, sizes: dict) -> dict:
    commit = None
    if (ROOT / ".git").exists():
        proc = subprocess.run(["git", "-C", str(ROOT), "rev-parse", "HEAD"],
                              capture_output=True, text=True, timeout=30)
        commit = proc.stdout.strip() or None
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_commit": commit,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        **versions,
        "nproc": os.cpu_count(),
        "affinity_cpus": len(os.sched_getaffinity(0)),
        "machine": platform.machine(),
        "blas_env": {k: os.environ.get(k) for k in BLAS_VARS},
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "size": args.size,
        "workload_sizes": sizes,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=("surface", "clone", "cli"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=sorted(SIZES), default="full",
                        help="workload size; 'tiny' is for the benchmark's own test")
    args = parser.parse_args(argv)
    # Turn SIGTERM into an exception, so the child in flight is stopped too.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    if not (SRC / "spinclone" / "__init__.py").is_file():
        print(f"error: no spinclone package under {SRC}", file=sys.stderr)
        return 2
    runner = Runner(args)
    runner.work.mkdir(parents=True, exist_ok=True)
    try:
        setups = runner.setup_samples()
        run = runner.measure()
        setups.append(run["setup_s"])
        metrics, details = end_to_end(run, setups, args.workload)
        attempted, failed = run["attempted"], run["failed"]
        details.update(attempted=attempted, failed=failed, errors=run.get("errors", {}),
                       edge=run.get("edge", {}))
        if "pass_s" in run:
            details.update(pass_s=run["pass_s"], flagged_rows_per_pass=run["flagged_rows"],
                           bytes_per_pass=run["bytes_out"])
        if args.trace:
            trace = runner.traced()
            imports = runner.import_probes()
            if args.workload == "cli":
                cold = {"clone": statistics.median(run["clone_s"]),
                        "sample": statistics.median(run["sample_s"])}
            else:
                cold = runner.cold_start_probes()
            metrics = per_layer(trace, imports, cold)
            details.update(traced_errors=trace["errors"], traced_edge=trace.get("edge", {}))
            attempted += trace["attempted"]
            failed += trace["failed"]
            if "csv_sha256" in trace and trace["csv_sha256"] != run["csv_sha256"]:
                failed += trace["attempted"]  # tracing changed the sweep's output
    except (BenchError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    finally:
        shutil.rmtree(runner.work, ignore_errors=True)
        try:
            runner.work.parent.rmdir()
        except OSError:
            pass

    details["environment"] = environment(args, run["versions"], run["sizes"])
    print(json.dumps({"report": details}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
