"""The cardiocausal benchmark: one workload, one seed, one result line.

    python3 bench/run.py --workload params-100 --seed 0 --seconds 10 --trace 0

Run it from the root of a source checkout; the package is imported from
``src/``.  Each run

1. generates the workload's inputs from ``--seed`` in a separate process
   (``inputs.py``);
2. times ``SETUP_SAMPLES`` fresh interpreters importing ``cardiocausal.cli``;
3. starts the measured process (``worker.py``), which calls
   ``cardiocausal.cli.main(["analyze", ...])`` on the generated files, once
   to warm up and then for ``--seconds``;
4. checks the outputs (the correctness gate) and prints the metrics.

Both timings are rescaled to a reference machine speed by the kernel of
``calibrate.py``, sampled during every measured interval.

With ``--trace 0`` the last line of standard output holds the ``end_to_end``
metrics of ``BENCHMARK.json``; with ``--trace 1`` the worker also runs the
traced replica once and the line holds the ``per_layer`` metrics.  The exit
code is 0 only when the gate passes.  Inputs are read back from the page
cache; the benchmark does not try to drop it.  README.md explains the
workloads and metrics.
"""

from __future__ import annotations

import argparse
import ast
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

from calibrate import REFERENCE_S, Calibration, at_reference

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
WORK = ROOT / ".bench_work"
DEADLINE_S = 170.0
SETUP_SAMPLES = 3
# A set-up sample: a fresh interpreter imports the CLI, then runs the
# calibration kernel and prints how long everything after the import took
# and the kernel times.  Only the interpreter start, the import and the
# exit are counted.  A kernel beside the child, in this process, would
# share the two cores with it and measure the import's own load.
SETUP_CODE = (
    "import cardiocausal.cli, sys, time\n"
    "t = time.perf_counter()\n"
    f"sys.path.insert(0, {str(BENCH)!r})\n"
    "from calibrate import kernel\n"
    "samples = [kernel() for _ in range(5)]\n"
    "print(repr((time.perf_counter() - t, samples)))\n"
)


@dataclass(frozen=True)
class Workload:
    kind: str  # "params" or "signals"
    subjects: int
    flags: tuple[str, ...]
    # Parameter tables per run.  The calls go round them, so the per-cohort
    # differences in search work average out within a run.
    cohorts: int = 1
    # A run makes at least this many timed calls, even past ``--seconds``.
    min_calls: int = 1
    duration_s: float = 0.0  # signal record length; 0 for params
    # Correctness tolerances, fixed here so that a change which alters the
    # learned graphs or the signal front end cannot pass as a speed-up.
    min_skeleton_f1: float = 0.0
    max_hr_err_bpm: float = 0.0
    max_resp_rate_err_bpm: float = 0.0
    # The warm-up call runs the same code paths on a smaller input.
    warmup_subjects: int = 100
    warmup_duration_s: float = 0.0


PAPER_FLAGS = ("--mediation", "cInsV,ciRR,HR")

WORKLOADS = {
    "params-100": Workload("params", 100, PAPER_FLAGS, cohorts=8, min_skeleton_f1=0.8),
    "params-1000": Workload("params", 1000, PAPER_FLAGS, min_calls=2, min_skeleton_f1=0.8),
    # The params-100 tables with only hc, tabu and fges.  At least 100
    # calls leave ten samples beyond the 90th percentile.
    "search-100": Workload(
        "params", 100, ("--methods", "hc,tabu,fges", "--mask-derived", "post-hoc"),
        cohorts=8, min_calls=100, min_skeleton_f1=0.55,
    ),
    "signals-300s": Workload(
        "signals", 10,
        ("--methods", "hc,tabu,fges", "--mediation", "HR,RR,cInsT"),
        duration_s=300.0, min_calls=2, max_hr_err_bpm=1.0, max_resp_rate_err_bpm=0.5,
        warmup_subjects=10, warmup_duration_s=40.0,
    ),
}


class BenchError(RuntimeError):
    """The benchmark could not run to the end."""


@dataclass
class Run:
    """One benchmark run: its processes, the deadline they share, and its work dir."""

    work: Path
    deadline: float
    env: dict = field(default_factory=lambda: dict(
        os.environ,
        PYTHONPATH=os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")])),
        # One BLAS thread: the matrices are small, and spinning BLAS threads
        # on a shared 2-core machine cost CPU and add noise, not speed.
        OPENBLAS_NUM_THREADS="1",
        OMP_NUM_THREADS="1",
    ))

    def python(self, *args: str) -> tuple[float, str]:
        """Run a child interpreter to completion; returns its wall time and
        standard output."""
        remaining = self.deadline - time.monotonic()
        if remaining <= 0:
            raise BenchError(f"out of time before: {' '.join(args)}")
        start = time.perf_counter()
        try:
            proc = subprocess.run(
                [sys.executable, *args], env=self.env, cwd=ROOT, timeout=remaining,
                stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True,
            )
        except subprocess.TimeoutExpired:
            raise BenchError(f"timed out: {' '.join(args)}") from None
        elapsed = time.perf_counter() - start
        if proc.returncode != 0:
            raise BenchError(f"{' '.join(args)} exited {proc.returncode}:\n{proc.stderr[-2000:]}")
        return elapsed, proc.stdout

    def generate(self, w: Workload, subjects: int, cohorts: int, duration_s: float,
                 seed: int, out: Path) -> list[Path]:
        args = [str(BENCH / "inputs.py"), w.kind, "--subjects", str(subjects),
                "--seed", str(seed), "--out", str(out)]
        if w.kind == "signals":
            self.python(*args, "--duration", repr(duration_s))
            return [out / "records"]
        self.python(*args, "--cohorts", str(cohorts))
        return [out / f"params-{i}.csv" for i in range(cohorts)]


def declared_units() -> dict[str, dict[str, str]]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text("utf-8"))
    return {
        kind: {m["name"]: m["unit"] for m in spec[kind]} for kind in ("end_to_end", "per_layer")
    }


def measure(name: str, w: Workload, seed: int, seconds: float, trace: bool) -> tuple[dict, list[str]]:
    """Run workload ``w`` once; returns (result line, human-readable lines)."""
    run = Run(WORK / f"{name}-seed{seed}-{os.getpid()}", time.monotonic() + DEADLINE_S)
    trace_dir = WORK / "traces" / f"{name}-seed{seed}"
    if run.work.exists():
        shutil.rmtree(run.work)
    if trace:
        shutil.rmtree(trace_dir, ignore_errors=True)
        trace_dir.mkdir(parents=True)
    try:
        return _measure(run, w, seed, seconds, trace, trace_dir)
    finally:
        shutil.rmtree(run.work, ignore_errors=True)


def _measure(run: Run, w: Workload, seed: int, seconds: float, trace: bool,
             trace_dir: Path) -> tuple[dict, list[str]]:
    data = run.generate(w, w.subjects, w.cohorts, w.duration_s, seed, run.work / "input")
    if w.subjects == w.warmup_subjects and w.duration_s == w.warmup_duration_s:
        warmup_data = data[0]
    else:
        warmup_data = run.generate(
            w, w.warmup_subjects, 1, w.warmup_duration_s, seed, run.work / "warmup"
        )[0]
    setup = Calibration()
    for _ in range(SETUP_SAMPLES):
        elapsed, out = run.python("-c", SETUP_CODE)
        tail, samples = ast.literal_eval(out)
        setup.add(elapsed - tail, samples)

    def analyze(path: Path) -> list[str]:
        return ["analyze", "--input", str(path), "--input-kind", w.kind, *w.flags]

    outs = [run.work / f"out-{i}" for i in range(len(data))]
    job = {
        "kind": w.kind,
        "inputs": [
            {"argv": analyze(path) + ["--out", str(out)], "out": str(out)}
            for path, out in zip(data, outs)
        ],
        "warmup_argv": analyze(warmup_data) + ["--out", str(run.work / "warmup-out")],
        "seconds": seconds,
        "min_calls": w.min_calls,
        "trace": trace,
        "trace_dir": str(trace_dir),
        "truth": str(run.work / "input" / "truth.json"),
        "result": str(run.work / "result.json"),
    }
    job_path = run.work / "job.json"
    job_path.write_text(json.dumps(job, indent=1), "utf-8")
    run.python(str(BENCH / "worker.py"), str(job_path))
    res = json.loads((run.work / "result.json").read_text("utf-8"))
    return gate(w, res, setup, trace)


def gate(w: Workload, res: dict, setup: Calibration, trace: bool) -> tuple[dict, list[str]]:
    """Apply the correctness gate and build the result line."""
    problems = list(res["failures"])
    if res["report_changed"]:
        problems.append("report.json differs between calls of one run")
    acc = res.get("accuracy")
    if acc is None:
        problems.append("no output to check")
    elif w.kind == "params":
        if not acc["skeleton_f1"] >= w.min_skeleton_f1:
            problems.append(f"skeleton_f1 {acc['skeleton_f1']:.4f} < {w.min_skeleton_f1}")
    else:
        if acc["records_extracted"] != acc["records"]:
            problems.append(f"{acc['records'] - acc['records_extracted']} records not extracted")
        if not acc["hr_err_bpm"] <= w.max_hr_err_bpm:
            problems.append(f"hr_err_bpm {acc['hr_err_bpm']:.4f} > {w.max_hr_err_bpm}")
        if not acc["resp_rate_err_bpm"] <= w.max_resp_rate_err_bpm:
            problems.append(
                f"resp_rate_err_bpm {acc['resp_rate_err_bpm']:.4f} > {w.max_resp_rate_err_bpm}"
            )
    if trace and res.get("replica_differs"):
        problems.append(f"traced replica differs from report.json in {res['replica_differs']}")

    times = res["times"]
    calls = 1 + len(times)  # the warm-up call counts as an operation too
    records = acc.get("records", 0) if acc else 0
    failed_records = records - acc.get("records_extracted", 0) if acc else 0
    attempted = calls + records
    failed = len(res["failures"]) + failed_records
    analysis = at_reference(times, res["kernel_s"])
    lines = [
        f"calls {len(times)} (after 1 warm-up): median {statistics.median(times):.4f} s,"
        f" min {min(times):.4f} s, max {max(times):.4f} s of wall time",
        f"setup samples: {', '.join(f'{s:.4f}' for s in setup.raw)} s of wall time",
        f"calibration kernel: median {statistics.median(res['kernel_s']):.5f} s during calls,"
        f" {statistics.median(setup.kernel_medians):.5f} s in the set-up interpreters;"
        f" reference {REFERENCE_S} s",
        f"failed_frac {failed / attempted:.4f} ({failed} of {attempted} operations)",
    ]
    if len(analysis) >= 100:
        p90 = statistics.quantiles(analysis, n=10)[-1]
        lines.append(f"analysis_s_p90 {p90:.4f} s ({len(analysis)} calls)")
    if acc:
        lines += [f"accuracy {k} {v:.6g}" for k, v in acc.items()]
    lines += [f"gate: {p}" for p in problems]

    units = declared_units()
    if trace:
        values = res.get("layers", {})
        lines += [f"share {name} {share:.4f}" for name, share in res.get("shares", {}).items()]
        kind = "per_layer"
    else:
        values = {
            "setup_s": statistics.median(setup.scaled()),
            "analysis_s": statistics.median(analysis),
            "peak_rss_mb": res["peak_rss_mb"],
        }
        kind = "end_to_end"
    if not problems and set(values) != set(units[kind]):
        raise BenchError(f"metrics {sorted(values)} do not match BENCHMARK.json {kind}")
    result = {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": units[kind][k]} for k, v in values.items()},
    }
    return result, lines


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="cardiocausal benchmark")
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    # On SIGTERM, unwind: subprocess.run then kills the running child, and
    # the work directory is removed.
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))
    if args.seed < 0:
        parser.error("--seed must be nonnegative")
    if not (ROOT / "src" / "cardiocausal" / "cli.py").is_file():
        print(f"error: no cardiocausal sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    try:
        result, lines = measure(
            args.workload, WORKLOADS[args.workload], args.seed, args.seconds, bool(args.trace)
        )
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    for line in lines:
        print(line)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
