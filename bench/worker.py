"""Measured process of the benchmark.

    python3 bench/worker.py JOB.json

Runs ``cardiocausal.cli.main`` on the generated inputs named in the job:
one warm-up call, then timed calls that go round the inputs in whole rounds
until ``min_calls`` were made and ``seconds`` have passed.  During
each timed call it samples the calibration kernel of ``calibrate.py``.
It reads its peak RSS right after the last call, then checks the
outputs against the generator's ground truth and, with ``trace`` set, runs
the traced replica once.  Everything it finds goes to the job's ``result``
file; deciding pass or fail is left to ``run.py``.
"""

from __future__ import annotations

import json
import resource
import statistics
import sys
import time
from contextlib import redirect_stderr, redirect_stdout
from io import StringIO
from pathlib import Path

from calibrate import Calibration
from cardiocausal import cli


def call_cli(argv: list[str], calibration: Calibration | None = None) -> str | None:
    """Run one analysis, timed into ``calibration`` if given; returns the
    failure or None.  A nonzero exit or any warning counts as a failure:
    the generated records are all valid."""
    out, err = StringIO(), StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        if calibration is None:
            code = cli.main(argv)
        else:
            with calibration.interval():
                code = cli.main(argv)
    if code != 0 or err.getvalue():
        return f"exit {code}: {err.getvalue().strip()[:500]}"
    return None


def skeleton_f1(report: dict) -> float:
    """Min over positions of the F1 of the consensus skeleton against SEM_EDGES."""
    from cardiocausal.pipeline import ConsensusGraph, EdgeVotes
    from cardiocausal.synthetic import SEM_EDGES

    truth = {frozenset(e) for e in SEM_EDGES}
    scores = []
    for section in report["consensus"].values():
        votes = {
            (v["from"], v["to"]): EdgeVotes(
                frozenset(v["supporting"]), frozenset(v["opposing"]), frozenset(v["undirected"])
            )
            for v in section["votes"]
        }
        graph = ConsensusGraph(
            tuple(section["nodes"]), votes, section["total_methods"], tuple(section["methods"])
        )
        found = {frozenset(p) for p in graph.skeleton_pairs()}
        scores.append(2.0 * len(found & truth) / (len(found) + len(truth)))
    return min(scores)


def signal_errors(out_dir: Path, truth_path: Path) -> dict:
    """Max errors of extracted HR and breathing rate against the generator."""
    from cardiocausal.record_io import load_parameter_table

    truth = json.loads(truth_path.read_text("utf-8"))
    rows = load_parameter_table(out_dir / "params.csv").rows
    hr_err = rr_err = 0.0
    for row in rows:
        expected = truth[f"{row.subject_id}_{row.position.value}"]
        hr_err = max(hr_err, abs(row.params["HR"] - expected["hr_bpm"]))
        rr_err = max(rr_err, abs(row.params["RR"] - expected["resp_rate_bpm"]))
    return {
        "records": len(truth),
        "records_extracted": len(rows),
        "hr_err_bpm": hr_err,
        "resp_rate_err_bpm": rr_err,
    }


def traced_run(job: dict, report_text: str, untraced_s: float) -> dict:
    import replica
    from cardiocausal.pipeline import RunConfig

    echo = json.loads(report_text)["config"]
    config = RunConfig(
        input_path=echo["input_path"],
        input_kind=echo["input_kind"],
        positions=tuple(echo["positions"]),
        methods=tuple(echo["methods"]),
        seed=echo["seed"],
        mask_derived=echo["mask_derived"],
        mediation_paths=tuple(map(tuple, echo["mediation_paths"])),
    )
    tr = replica.Tracer()
    text, table, names, searched, counts = replica.run_traced(
        config, Path(job["trace_dir"]) / "params.csv", tr
    )
    positions = [replica.Position(p) for p in config.positions]
    gcorr = replica.gcorr_pair_times(table, positions, names)
    parsed = json.loads(text)
    Path(job["trace_dir"], "spans.json").write_text(json.dumps(tr.to_json(), indent=1), "utf-8")
    expected = json.loads(report_text)
    return {
        "layers": replica.layer_metrics(tr, parsed, searched, counts, gcorr, untraced_s),
        "shares": replica.shares(tr),
        "replica_differs": sorted(k for k in expected if parsed.get(k) != expected[k]),
    }


def main() -> None:
    job = json.loads(Path(sys.argv[1]).read_text("utf-8"))
    inputs = job["inputs"]
    result: dict = {"failures": [], "report_changed": False}

    failure = call_cli(job["warmup_argv"])
    if failure:
        result["failures"].append(f"warm-up: {failure}")
    reports: list[str | None] = [None] * len(inputs)
    calibration = Calibration()
    window_start = time.perf_counter()
    # Calls go round the inputs, in whole rounds so that each input weighs
    # the same in the median, until at least ``min_calls`` were made and
    # the window has passed.
    while (
        len(calibration.raw) < job["min_calls"]
        or len(calibration.raw) % len(inputs)
        or time.perf_counter() - window_start < job["seconds"]
    ):
        i = len(calibration.raw) % len(inputs)
        failure = call_cli(inputs[i]["argv"], calibration)
        if failure:
            result["failures"].append(failure)
            break
        text = Path(inputs[i]["out"], "report.json").read_text("utf-8")
        if reports[i] is None:
            reports[i] = text
        elif text != reports[i]:
            result["report_changed"] = True
    result["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    result["times"] = calibration.raw
    result["kernel_s"] = calibration.kernel_medians

    if not result["failures"]:
        if job["kind"] == "params":
            scores = [skeleton_f1(json.loads(text)) for text in reports]
            result["accuracy"] = {
                "skeleton_f1": statistics.mean(scores),
                "skeleton_f1_worst_input": min(scores),
            }
        else:
            result["accuracy"] = signal_errors(Path(inputs[0]["out"]), Path(job["truth"]))
        if job["trace"]:
            first_input_times = result["times"][:: len(inputs)]
            result |= traced_run(job, reports[0], statistics.median(first_input_times))
    Path(job["result"]).write_text(json.dumps(result, indent=1), "utf-8")


if __name__ == "__main__":
    main()
