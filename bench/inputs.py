"""Input generator for the benchmark, run in its own process.

    python3 bench/inputs.py params  --subjects N --cohorts K --seed S --out DIR
    python3 bench/inputs.py signals --subjects N --duration D --seed S --out DIR

``params`` writes ``DIR/params-<i>.csv`` for i < K, cohort i drawn by
``sem_cohort`` with seed K * S + i.  ``signals`` writes one
``<subject>_<position>.csv`` per subject and position under ``DIR/records``
and the generator's ground truth to ``DIR/truth.json``.
The same arguments always give byte-identical files.  Generating here, and
not in the measured process, keeps the generator's memory and time out of
``peak_rss_mb`` and ``analysis_s``.
"""

from __future__ import annotations

import argparse
import json
import math
from pathlib import Path

import numpy as np

# Importing the CLI here also fills the bytecode cache, so the timed
# set-up imports that follow never pay for compilation.
import cardiocausal.cli  # noqa: F401
from cardiocausal.record_io import (
    Position,
    SignalRecord,
    save_parameter_table,
    save_signal_record,
)
from cardiocausal.synthetic import sem_cohort, synthetic_ecg

SAMPLE_RATE_HZ = 250.0

# Per-position draws: (HR at start, bpm), (HR rise over the record, bpm),
# (breathing frequency, Hz).  Standing raises heart and breathing rates.
_RANGES = {
    Position.SUPINE: ((58.0, 72.0), (5.0, 15.0), (0.20, 0.27)),
    Position.STANDING: ((74.0, 90.0), (5.0, 15.0), (0.24, 0.32)),
}


def write_params(out: Path, subjects: int, cohorts: int, seed: int) -> None:
    for i in range(cohorts):
        table, _ = sem_cohort(subjects, seed=cohorts * seed + i)
        save_parameter_table(table, out / f"params-{i}.csv")


def write_signals(out: Path, subjects: int, duration_s: float, seed: int) -> None:
    """Paired ECG and impedance records with known beat times and breathing rate.

    The ECG sweeps its heart rate and carries 25 dB noise.  The impedance
    channel is a constant-frequency breath whose amplitude is modulated
    slowly, plus 0.03x the ECG, so the LMS filter has an artifact to cancel.
    """
    rng = np.random.default_rng(seed)
    records = out / "records"
    records.mkdir(parents=True)
    t = np.arange(int(round(duration_s * SAMPLE_RATE_HZ))) / SAMPLE_RATE_HZ
    truth = {}
    for i in range(subjects):
        subject = f"s{i + 1:02d}"
        for position, (hr_range, rise_range, breath_range) in _RANGES.items():
            hr0 = rng.uniform(*hr_range)
            ecg, peaks = synthetic_ecg(
                duration_s, SAMPLE_RATE_HZ, hr_start_bpm=hr0,
                hr_end_bpm=hr0 + rng.uniform(*rise_range), noise_snr_db=25.0,
                seed=int(rng.integers(1 << 30)),
            )
            breath_hz = rng.uniform(*breath_range)
            am_hz = rng.uniform(0.01, 0.03)
            envelope = 1.0 + 0.35 * np.sin(2.0 * math.pi * am_hz * t + rng.uniform(0.0, 6.0))
            ip = envelope * np.sin(2.0 * math.pi * breath_hz * t + rng.uniform(0.0, 6.0))
            ip = ip + 0.03 * ecg
            record = SignalRecord(subject, position, SAMPLE_RATE_HZ, ecg, ip)
            save_signal_record(record, records / f"{subject}_{position.value}.csv")
            truth[f"{subject}_{position.value}"] = {
                "hr_bpm": 60.0 / float(np.mean(np.diff(peaks))),
                "resp_rate_bpm": 60.0 * breath_hz,
            }
    (out / "truth.json").write_text(json.dumps(truth, sort_keys=True, indent=1), "utf-8")


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("kind", choices=("params", "signals"))
    parser.add_argument("--subjects", type=int, required=True)
    parser.add_argument("--cohorts", type=int, default=1, help="parameter tables to write")
    parser.add_argument("--duration", type=float, default=300.0, help="record length, s")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--out", type=Path, required=True)
    args = parser.parse_args(argv)
    args.out.mkdir(parents=True)
    if args.kind == "params":
        write_params(args.out, args.subjects, args.cohorts, args.seed)
    else:
        write_signals(args.out, args.subjects, args.duration, args.seed)


if __name__ == "__main__":
    main()
