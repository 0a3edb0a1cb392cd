"""Golden-output gate: the SHA-256 of every file that 18 CLI runs write.

The corpus is ``sem_cohort(100)`` seeds 0-7 and ``sem_cohort(1000, seed=0)``,
each analysed once with ``--mask-derived exclude`` and once with ``post-hoc``,
all five default methods and the mediation path cInsV -> ciRR -> HR.
``tests/golden.json`` holds the digests, so any changed output byte fails the
test.  A change that alters outputs on purpose rewrites the file with

    PYTHONPATH=src python3 tests/test_golden.py

and names each changed digest, and why, in CHANGES.md.

The digests were taken with one BLAS thread, which conftest.py sets before
numpy loads; the refresh imports it for the same reason.
"""

import contextlib
import hashlib
import json
import sys
import tempfile
from pathlib import Path

import conftest  # noqa: F401  (one BLAS thread when run as a script)
from cardiocausal import cli
from cardiocausal.record_io import save_parameter_table
from cardiocausal.synthetic import sem_cohort

GOLDEN = Path(__file__).with_name("golden.json")
COHORTS = [(100, seed) for seed in range(8)] + [(1000, 0)]
MODES = ("exclude", "post-hoc")


def corpus_digests(work: Path) -> dict[str, str]:
    """Run the corpus in ``work``: ``{"<run>/<file>": SHA-256}`` of its outputs.

    ``report.json`` echoes ``--input`` as given, so the inputs are named
    relative to ``work``.
    """
    with contextlib.chdir(work):
        for n, seed in COHORTS:
            source = f"cohort-{n}-{seed}.csv"
            save_parameter_table(sem_cohort(n, seed=seed)[0], source)
            for mode in MODES:
                code = cli.main([
                    "analyze", "--input", source, "--input-kind", "params",
                    "--mask-derived", mode, "--mediation", "cInsV,ciRR,HR",
                    "--out", f"out/cohort-{n}-{seed}-{mode}",
                ])
                assert code == 0, (source, mode)
    out = work / "out"
    return {
        path.relative_to(out).as_posix(): hashlib.sha256(path.read_bytes()).hexdigest()
        for path in sorted(out.rglob("*"))
        if path.is_file()
    }


def test_outputs_match_the_golden_digests(tmp_path):
    expected = json.loads(GOLDEN.read_text("utf-8"))
    digests = corpus_digests(tmp_path)
    changed = sorted(k for k in expected.keys() | digests.keys() if expected.get(k) != digests.get(k))
    assert not changed, f"{len(changed)} outputs differ from {GOLDEN.name}: {changed}"


if __name__ == "__main__":
    with tempfile.TemporaryDirectory() as work:
        digests = corpus_digests(Path(work))
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n", "utf-8")
    print(f"wrote {len(digests)} digests to {GOLDEN}", file=sys.stderr)
