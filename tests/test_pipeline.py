"""Tests for pipeline orchestration, consensus voting, masking, and the CLI."""

import errno
import json
import math
import multiprocessing
import os
import shutil
import signal
import subprocess
import sys
import threading
import time
import warnings
from collections import defaultdict
from dataclasses import dataclass, fields, replace
from itertools import combinations
from pathlib import Path
from unittest import mock

import numpy as np
import pytest
from hypothesis import event, example, given, settings
from hypothesis import strategies as st

import cardiocausal
from cardiocausal import cli, pipeline, structure_search
from cardiocausal.cli import main
from cardiocausal.graphs import EdgeGraph, GraphError
from cardiocausal.pipeline import (
    IGNORED_PAIRS,
    METHOD_NAMES,
    STRUCTURE_NAMES,
    ConfigError,
    ConsensusGraph,
    DirectedEdgeSet,
    EdgeVotes,
    PipelineError,
    RunConfig,
    _mask_ignored,
    consensus,
    run_pipeline,
)
from cardiocausal.mediation import MediationFit
from cardiocausal.param_features import PairedTestResult
from cardiocausal.record_io import (
    PARAMETER_NAMES,
    ParameterTable,
    Position,
    save_parameter_table,
)
from cardiocausal.synthetic import sem_cohort, synthetic_ecg


@pytest.fixture(scope="module")
def cohort_csv(tmp_path_factory):
    path = tmp_path_factory.mktemp("cohort") / "params.csv"
    table, _ = sem_cohort(60, seed=0)
    save_parameter_table(table, path)
    return path


@pytest.fixture(scope="module")
def full_report(cohort_csv):
    config = RunConfig(
        input_path=str(cohort_csv),
        input_kind="params",
        mediation_paths=(("cInsV", "ciRR", "HR"),),
    )
    return run_pipeline(config)


@pytest.fixture(scope="module")
def signals_dir(tmp_path_factory):
    root = tmp_path_factory.mktemp("signals")
    rng = np.random.default_rng(42)
    rate, duration = 250.0, 90.0
    t = np.arange(int(duration * rate)) / rate
    for i in range(10):
        hr0 = rng.uniform(60.0, 80.0)
        ecg, _ = synthetic_ecg(
            duration, rate, hr_start_bpm=hr0, hr_end_bpm=hr0 + rng.uniform(8.0, 25.0),
            noise_snr_db=25.0, seed=int(rng.integers(1 << 30)),
        )
        # chirped, amplitude-modulated breathing so the cycle-variability
        # coefficients differ across subjects
        f0 = rng.uniform(0.2, 0.3)
        chirp = rng.uniform(-0.02, 0.02) / duration
        am = rng.uniform(0.01, 0.03)
        phase = 2.0 * math.pi * (f0 * t + 0.5 * chirp * t * t)
        ip = (1.0 + 0.35 * np.sin(2.0 * math.pi * am * t + rng.uniform(0.0, 6.0))) * np.sin(phase)
        lines = ["t,ecg,ip"] + [
            f"{tv:.6f},{ev:.6f},{pv:.6f}" for tv, ev, pv in zip(t, ecg, ip)
        ]
        (root / f"s{i:02d}_supine.csv").write_text("\n".join(lines) + "\n", "utf-8")
    (root / "sXX_supine.csv").write_text("time,volts\n0,1\n", "utf-8")
    return root


class TestRunConfig:
    def test_defaults(self):
        config = RunConfig(input_path="x", input_kind="params")
        assert config.positions == ("supine", "standing")
        assert config.methods == ("gc", "hc", "tabu", "fges", "cam")
        assert config.mask_derived == "exclude"

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"input_kind": "parquet"},
            {"positions": ()},
            {"positions": ("sitting",)},
            {"positions": ("supine", "supine")},
            {"methods": ()},
            {"methods": ("pc",)},
            {"methods": ("hc", "hc")},
            {"mask_derived": "never"},
            {"mediation_paths": (("HR", "RR"),)},
            {"mediation_paths": (("HR", "HR", "RR"),)},
            {"mediation_paths": (("HR", "RR", "bogus"),)},
        ],
    )
    def test_invalid_config_rejected(self, kwargs):
        base = {"input_path": "x", "input_kind": "params"}
        base.update(kwargs)
        with pytest.raises(ConfigError):
            RunConfig(**base)


def dag(nodes, *edges):
    return EdgeGraph(tuple(nodes), frozenset(edges)).require_dag()


class TestConsensus:
    def test_majority_vote_counts(self):
        nodes = ("A", "B")
        graphs = [(f"m{i}", dag(nodes, ("A", "B"))) for i in range(5)]
        graphs.append(("m5", EdgeGraph(nodes, frozenset(), frozenset({frozenset(("A", "B"))}))))
        cg = consensus(graphs)
        assert cg.total_methods == 6
        assert cg.votes_for("A", "B") == (5, 0, 1)
        assert cg.votes_for("B", "A") == (0, 5, 1)

    def test_opposing_directions(self):
        nodes = ("A", "B")
        cg = consensus([("m0", dag(nodes, ("A", "B"))), ("m1", dag(nodes, ("B", "A")))])
        assert cg.votes_for("A", "B") == (1, 1, 0)
        assert cg.votes_for("B", "A") == (1, 1, 0)

    def test_single_empty_graph_has_no_votes(self):
        cg = consensus([("m0", dag(("A", "B")))])
        assert cg.edge_votes == {}
        assert cg.skeleton_pairs() == []

    def test_method_order_does_not_change_votes(self):
        nodes = ("A", "B", "C")
        graphs = [
            ("hc", dag(nodes, ("A", "B"), ("B", "C"))),
            ("tabu", dag(nodes, ("A", "B"))),
            ("fges", EdgeGraph(nodes, {("A", "B")}, {frozenset(("B", "C"))})),
            ("gc", DirectedEdgeSet(nodes, frozenset({("B", "A"), ("C", "B")}))),
        ]
        forward = consensus(graphs)
        backward = consensus(list(reversed(graphs)))
        assert forward.edge_votes == backward.edge_votes
        assert forward.total_methods == backward.total_methods
        assert forward.skeleton_pairs() == backward.skeleton_pairs()

    def test_mismatched_node_sets_rejected(self):
        with pytest.raises(PipelineError):
            consensus([("m0", dag(("A", "B"))), ("m1", dag(("A", "C")))])

    def test_empty_method_list_rejected(self):
        with pytest.raises(PipelineError):
            consensus([])

    def test_skeleton_pairs_use_majority_threshold(self):
        nodes = ("A", "B", "C")
        graphs = [
            ("m0", dag(nodes, ("A", "B"), ("B", "C"))),
            ("m1", dag(nodes, ("A", "B"))),
            ("m2", dag(nodes, ("B", "A"))),
            ("m3", dag(nodes)),
            ("m4", dag(nodes)),
        ]
        cg = consensus(graphs)
        # A-B has 3 of 5 votes (majority); B-C only 1
        assert cg.skeleton_pairs() == [("A", "B")]

    def test_dot_arrow_follows_majority_direction(self):
        nodes = ("A", "B", "C")
        graphs = [
            ("m0", dag(nodes, ("A", "B"), ("B", "C"))),
            ("m1", dag(nodes, ("A", "B"), ("C", "B"))),
            ("m2", dag(nodes, ("A", "B"))),
        ]
        dot = consensus(graphs).to_dot()
        assert '  "A" -> "B";' in dot
        assert '  "B" -> "C" [dir=none];' in dot


class TestDirectedEdgeSet:
    def test_dot_serialization(self):
        g = DirectedEdgeSet(("B", "A"), frozenset({("A", "B")}))
        assert g.to_dot() == 'digraph edges {\n  "B";\n  "A";\n  "A" -> "B";\n}\n'

    def test_cycles_allowed(self):
        g = DirectedEdgeSet(("A", "B"), frozenset({("A", "B"), ("B", "A")}))
        assert g.sorted_directed() == [("A", "B"), ("B", "A")]
        with pytest.raises(GraphError):
            g.require_dag()


class TestMaskIgnored:
    def test_derived_pairs_dropped_from_all_graph_kinds(self):
        nodes = PARAMETER_NAMES
        kept = ("HR", "RR")
        masked_dag = _mask_ignored(
            dag(nodes, kept, ("RMSSD", "lnRMSSD"), ("BR", "ciRR"))
        )
        assert masked_dag.directed == frozenset({kept})
        masked_cp = _mask_ignored(
            EdgeGraph(
                nodes,
                frozenset({kept, ("lnRMSSD", "RMSSD")}),
                frozenset({frozenset(("BR", "cExpV"))}),
            )
        )
        assert masked_cp.directed == frozenset({kept})
        assert masked_cp.undirected == frozenset()
        masked_set = _mask_ignored(
            DirectedEdgeSet(nodes, frozenset({kept, ("cInsT", "BR")}))
        )
        assert masked_set.directed == frozenset({kept})

    def test_ignored_pairs_cover_derivations(self):
        assert frozenset(("RMSSD", "lnRMSSD")) in IGNORED_PAIRS
        for cv in ("ciRR", "cInsT", "cExpT", "cInsV", "cExpV"):
            assert frozenset(("BR", cv)) in IGNORED_PAIRS
        assert len(IGNORED_PAIRS) == 6


def _reference_dot(nodes, directed, undirected, name):
    """The DOT writer of the former CPDAG type, which the DAG and gc edge-set
    types matched when a graph had no undirected edges."""
    idx = {v: i for i, v in enumerate(nodes)}
    lines = [f"digraph {name} {{"]
    for v in nodes:
        lines.append(f'  "{v}";')
    for a, b in sorted(directed, key=lambda e: (idx[e[0]], idx[e[1]])):
        lines.append(f'  "{a}" -> "{b}";')
    pairs = [tuple(sorted(p, key=idx.__getitem__)) for p in undirected]
    for a, b in sorted(pairs, key=lambda e: (idx[e[0]], idx[e[1]])):
        lines.append(f'  "{a}" -> "{b}" [dir=none];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _reference_payload(directed, undirected):
    """The report's former graph payload: undirected pairs as sorted tuples."""
    und = {tuple(sorted(p)) for p in undirected}
    return {
        "directed": sorted(list(e) for e in directed),
        "undirected": sorted(list(e) for e in und),
    }


def _reference_mask(directed, undirected):
    """The former post-hoc mask, edge by edge."""

    def keep(a, b):
        return frozenset((a, b)) not in IGNORED_PAIRS

    return (
        frozenset(e for e in directed if keep(*e)),
        frozenset(p for p in undirected if keep(*tuple(p))),
    )


def _draw_edges(draw, nodes):
    """For each pair of ``nodes`` no edge, either direction, both directions
    (a gc cycle) or an undirected edge."""
    directed, undirected = set(), set()
    for a, b in combinations(nodes, 2):
        kind = draw(st.sampled_from(("none", "ab", "ba", "both", "undirected")))
        if kind in ("ab", "both"):
            directed.add((a, b))
        if kind in ("ba", "both"):
            directed.add((b, a))
        if kind == "undirected":
            undirected.add(frozenset((a, b)))
    return frozenset(directed), frozenset(undirected)


@st.composite
def _edge_graphs(draw):
    """(nodes, directed, undirected): parameter names in a drawn order, and
    edges drawn by ``_draw_edges``."""
    names = draw(st.permutations(PARAMETER_NAMES))
    nodes = tuple(names[: draw(st.integers(2, len(names)))])
    return nodes, *_draw_edges(draw, nodes)


class TestEdgeGraphAgainstReferences:
    @settings(max_examples=200, deadline=None)
    @given(_edge_graphs())
    @example((
        ("RR", "HR", "cInsV", "BR", "ciRR"),
        frozenset({("RR", "HR"), ("HR", "cInsV"), ("cInsV", "RR"), ("BR", "ciRR")}),
        frozenset({frozenset(("HR", "BR")), frozenset(("BR", "cInsV"))}),
    ))
    def test_dot_payload_and_mask_match_the_former_writers(self, graph):
        nodes, directed, undirected = graph
        g = EdgeGraph(nodes, directed, undirected)
        assert g.to_dot("method_gc_supine") == _reference_dot(
            nodes, directed, undirected, "method_gc_supine"
        )
        assert g.payload() == _reference_payload(directed, undirected)
        masked = _mask_ignored(g)
        kept = _reference_mask(directed, undirected)
        assert (masked.nodes, masked.directed, masked.undirected) == (nodes, *kept)
        assert masked.to_dot("m") == _reference_dot(nodes, *kept, "m")


class TestRunPipelineOnParams:
    def test_no_warnings_on_clean_cohort(self, full_report):
        assert full_report.warnings == ()

    def test_paired_tests_cover_all_parameters(self, full_report):
        assert tuple(t.parameter for t in full_report.paired_tests) == PARAMETER_NAMES
        for t in full_report.paired_tests:
            assert 0.0 <= t.p_value <= 1.0
            assert t.p_value < 0.01  # the generator shifts every parameter

    def test_correlation_matrices_shape_and_symmetry(self, full_report):
        for pos in ("supine", "standing"):
            matrix = full_report.correlations[pos]
            assert matrix.shape == (10, 10)
            assert np.all(np.isnan(np.diag(matrix)))
            off = ~np.eye(10, dtype=bool)
            assert np.allclose(matrix[off], matrix.T[off], equal_nan=True)

    def test_derived_parameters_excluded_from_structure_search(self, full_report):
        for pos, graphs in full_report.method_graphs.items():
            assert set(graphs) == {"gc", "hc", "tabu", "fges", "cam"}
            for graph in graphs.values():
                assert tuple(graph.nodes) == STRUCTURE_NAMES
                assert "lnRMSSD" not in graph.nodes and "BR" not in graph.nodes

    def test_consensus_matches_recount(self, full_report):
        for pos, cg in full_report.consensus_graphs.items():
            assert isinstance(cg, ConsensusGraph)
            assert cg.total_methods == 5
            recount = consensus(list(full_report.method_graphs[pos].items()))
            assert recount.edge_votes == cg.edge_votes

    def test_mediation_fit_per_position(self, full_report):
        assert len(full_report.mediation_results) == 2
        positions = [pos for pos, _ in full_report.mediation_results]
        assert positions == ["supine", "standing"]
        for _, fit in full_report.mediation_results:
            assert fit.path == ("cInsV", "ciRR", "HR")
            assert 0.0 <= fit.sobel_p <= 1.0

    def test_rerun_is_byte_identical(self, cohort_csv):
        config = RunConfig(
            input_path=str(cohort_csv), input_kind="params",
            methods=("gc", "hc", "tabu", "fges"),
        )
        assert run_pipeline(config).to_json() == run_pipeline(config).to_json()

    @pytest.mark.parametrize(
        "methods, positions", [(("hc", "tabu", "fges", "gc"), 2), (("gc",), 0)], ids=["bic", "gc"]
    )
    def test_one_bic_scorer_per_position(self, cohort_csv, methods, positions, monkeypatch):
        # one CPU: the spy counts in this process, and no position is forked
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0}, raising=False)
        built = []

        def build(design):
            built.append(structure_search._BicScorer(design))
            return built[-1]

        config = RunConfig(input_path=str(cohort_csv), input_kind="params", methods=methods)
        with mock.patch.object(pipeline, "_BicScorer", side_effect=build):
            run_pipeline(config)
        assert len(built) == positions
        for scorer in built:
            assert len(scorer.climbs) == 1  # hc's climb, which tabu continued from

    def test_post_hoc_masking_reports_no_derived_edges(self, cohort_csv):
        config = RunConfig(
            input_path=str(cohort_csv), input_kind="params",
            methods=("gc", "hc", "fges"), mask_derived="post-hoc",
        )
        report = run_pipeline(config)
        for graphs in report.method_graphs.values():
            for graph in graphs.values():
                assert tuple(graph.nodes) == PARAMETER_NAMES
                assert not graph.skeleton() & IGNORED_PAIRS


# the default methods' graphs and the consensus skeleton on
# sem_cohort(100, seed=0) with mask_derived="exclude": "a->b" is a directed
# edge, "a--b" an undirected edge or a skeleton pair (names sorted)
_PINNED_GRAPHS = {
    "supine": {
        "gc": (
            "HR->RMSSD", "HR->RR", "HR->cExpV", "HR->cInsV", "RMSSD->RR", "RMSSD->cInsT",
            "RR->cInsV", "cExpV->RMSSD", "cInsT->HR", "cInsT->RR", "cInsV->RMSSD", "cInsV->cExpV",
            "ciRR->RR", "ciRR->cExpT", "ciRR->cInsT",
        ),
        "hc": (
            "HR->RMSSD", "HR->RR", "RMSSD->cInsV", "RR->cExpV", "RR->cInsT", "cExpT->ciRR",
            "cInsT->ciRR", "cInsV->cExpV",
        ),
        "tabu": (
            "HR->RMSSD", "HR->RR", "RMSSD->cInsV", "cExpT->ciRR", "cExpV->RR", "cInsT->HR",
            "cInsT->RR", "cInsT->ciRR", "cInsV->RR", "cInsV->cExpV",
        ),
        "fges": (
            "RR->cExpV", "cExpT->ciRR", "cInsT->ciRR", "cInsV->cExpV", "HR--RMSSD", "HR--RR",
            "RMSSD--cInsV", "RR--cInsT",
        ),
        "cam": (
            "HR->RMSSD", "RMSSD->cInsV", "RR->HR", "RR->cExpV", "cExpT->cInsT", "cInsT->RR",
            "cInsV->cExpV", "ciRR->cExpT", "ciRR->cInsT",
        ),
        "skeleton": (
            "HR--RMSSD", "HR--RR", "RMSSD--cInsV", "RR--cExpV", "RR--cInsT", "cExpT--ciRR",
            "cExpV--cInsV", "cInsT--ciRR",
        ),
    },
    "standing": {
        "gc": (
            "HR->RMSSD", "HR->cExpV", "HR->cInsT", "HR->cInsV", "RMSSD->cExpV", "RMSSD->cInsT",
            "RMSSD->cInsV", "RR->HR", "RR->RMSSD", "RR->cInsT", "RR->ciRR", "cExpT->ciRR",
            "cInsT->ciRR", "cInsV->RR", "cInsV->cExpV", "ciRR->HR", "ciRR->RMSSD",
        ),
        "hc": (
            "HR->RMSSD", "RMSSD->cInsV", "RR->HR", "cExpT->ciRR", "cInsT->RR", "cInsT->ciRR",
            "cInsV->cExpV",
        ),
        "tabu": (
            "HR->RMSSD", "RMSSD->cInsV", "RR->HR", "cExpT->ciRR", "cInsT->RR", "cInsT->ciRR",
            "cInsV->cExpV",
        ),
        "fges": (
            "cExpT->ciRR", "cInsT->ciRR", "HR--RMSSD", "HR--RR", "RMSSD--cInsV", "RR--cInsT",
            "cExpV--cInsV",
        ),
        "cam": (
            "HR->RMSSD", "RMSSD->cInsV", "RR->HR", "cExpT->ciRR", "cInsT->RR", "cInsT->ciRR",
            "cInsV->cExpV",
        ),
        "skeleton": (
            "HR--RMSSD", "HR--RR", "RMSSD--cInsV", "RR--cInsT", "cExpT--ciRR", "cExpV--cInsV",
            "cInsT--ciRR",
        ),
    },
}


def _edge_strings(graph):
    directed = [f"{a}->{b}" for a, b in sorted(graph.directed)]
    undirected = [f"{a}--{b}" for a, b in sorted(tuple(sorted(p)) for p in graph.undirected)]
    return tuple(directed + undirected)


@pytest.fixture(scope="module")
def cohort100_report(tmp_path_factory):
    path = tmp_path_factory.mktemp("cohort100") / "params.csv"
    table, _ = sem_cohort(100, seed=0)
    save_parameter_table(table, path)
    config = RunConfig(input_path=str(path), input_kind="params", mask_derived="exclude")
    return run_pipeline(config)


class TestPinnedDefaultGraphs:
    @pytest.mark.parametrize("position", ["supine", "standing"])
    def test_default_methods_and_skeleton(self, cohort100_report, position):
        pinned = _PINNED_GRAPHS[position]
        graphs = cohort100_report.method_graphs[position]
        assert list(graphs) == ["gc", "hc", "tabu", "fges", "cam"]
        for method, graph in graphs.items():
            assert _edge_strings(graph) == pinned[method], method
        pairs = cohort100_report.consensus_graphs[position].skeleton_pairs()
        skeleton = sorted(tuple(sorted(p)) for p in pairs)
        assert tuple(f"{a}--{b}" for a, b in skeleton) == pinned["skeleton"]


class TestRunPipelineErrors:
    def test_too_few_subjects_is_fatal(self, tmp_path):
        table, _ = sem_cohort(3, seed=1)
        path = tmp_path / "tiny.csv"
        save_parameter_table(table, path)
        config = RunConfig(input_path=str(path), input_kind="params")
        with pytest.raises(PipelineError, match="fewer than 4 subjects"):
            run_pipeline(config)

    def test_missing_params_file_is_fatal(self, tmp_path):
        config = RunConfig(input_path=str(tmp_path / "none.csv"), input_kind="params")
        with pytest.raises(PipelineError):
            run_pipeline(config)

    def test_signals_input_must_be_directory(self, tmp_path):
        path = tmp_path / "rec.csv"
        path.write_text("t,ecg,ip\n", "utf-8")
        config = RunConfig(input_path=str(path), input_kind="signals")
        with pytest.raises(PipelineError):
            run_pipeline(config)

    def test_all_bad_signal_files_is_fatal(self, tmp_path):
        (tmp_path / "a_supine.csv").write_text("bogus\n", "utf-8")
        config = RunConfig(
            input_path=str(tmp_path), input_kind="signals", positions=("supine",)
        )
        with pytest.raises(PipelineError):
            run_pipeline(config)


class TestRunPipelineOnSignals:
    def test_bad_file_becomes_warning_and_rest_proceed(self, signals_dir):
        config = RunConfig(
            input_path=str(signals_dir), input_kind="signals",
            positions=("supine",), methods=("hc", "fges"),
        )
        report = run_pipeline(config)
        assert report.warnings == (
            "sXX_supine.csv: malformed header ['time', 'volts']; expected t,ecg,ip",
        )
        assert report.table.subjects(Position.SUPINE) == [f"s{i:02d}" for i in range(10)]
        assert set(report.method_graphs["supine"]) == {"hc", "fges"}
        assert report.paired_tests == ()

    def test_extracted_parameters_are_physiological(self, signals_dir):
        config = RunConfig(
            input_path=str(signals_dir), input_kind="signals",
            positions=("supine",), methods=("hc",),
        )
        report = run_pipeline(config)
        hr = report.table.column("HR", Position.SUPINE)
        rr = report.table.column("RR", Position.SUPINE)
        assert np.all((hr > 55.0) & (hr < 110.0))
        assert np.all((rr > 10.0) & (rr < 20.0))
        assert float(np.std(report.table.column("ciRR", Position.SUPINE))) > 0.0


@pytest.fixture(scope="module")
def mixed_signals_dir(signals_dir, tmp_path_factory):
    """The good records and bad header of ``signals_dir``, plus non-UTF-8
    bytes, a record under 30 s, an unknown position and a blank subject id."""
    root = tmp_path_factory.mktemp("mixed") / "records"
    shutil.copytree(signals_dir, root)
    good = (signals_dir / "s00_supine.csv").read_bytes()
    (root / "sYY_supine.csv").write_bytes(b"t,ecg,ip\n0.0,\xff,0.0\n")
    (root / "sZZ_supine.csv").write_bytes(b"\n".join(good.split(b"\n")[: 20 * 250 + 1]) + b"\n")
    (root / "s03_sitting.csv").write_bytes(good)
    (root / "_supine.csv").write_bytes(good)
    return root


def _serial_table(directory: Path):
    """The one-record-after-another extraction loop, as a reference."""
    rows, warnings = [], []
    for path in sorted(directory.glob("*.csv")):
        row, warning = pipeline._extract(path)
        if warning is None:
            rows.append(row)
        else:
            warnings.append(warning)
    return ParameterTable(tuple(rows)), warnings


class _PoolSizes:
    """Records the worker count of each pool the pipeline opens."""

    def __init__(self, monkeypatch):
        self.sizes = []
        real = pipeline.ProcessPoolExecutor

        def executor(max_workers, **kwargs):
            self.sizes.append(max_workers)
            return real(max_workers, **kwargs)

        monkeypatch.setattr(pipeline, "ProcessPoolExecutor", executor)


class TestParallelExtraction:
    @pytest.mark.parametrize("cpus", [{0}, {0, 1, 2}])
    def test_matches_the_serial_loop(self, mixed_signals_dir, monkeypatch, cpus):
        expected_table, expected_warnings = _serial_table(mixed_signals_dir)
        assert len(expected_table.rows) == 10 and len(expected_warnings) == 5
        pools = _PoolSizes(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)
        warnings = []
        table = pipeline._table_from_signals(mixed_signals_dir, warnings)
        assert pools.sizes == [len(cpus)]
        assert table == expected_table
        assert warnings == expected_warnings
        assert multiprocessing.active_children() == []

    def test_at_most_one_worker_per_file(self, signals_dir, tmp_path, monkeypatch):
        for name in ("s00_supine.csv", "s01_supine.csv"):
            shutil.copy(signals_dir / name, tmp_path)
        pools = _PoolSizes(monkeypatch)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1, 2}, raising=False)
        table = pipeline._table_from_signals(tmp_path, [])
        assert pools.sizes == [2]
        assert table.subjects(Position.SUPINE) == ["s00", "s01"]

    def test_cpu_count_where_affinity_is_unknown(self, monkeypatch):
        monkeypatch.delattr(os, "sched_getaffinity", raising=False)
        monkeypatch.setattr(os, "cpu_count", lambda: 3)
        assert pipeline._available_cpus() == 3
        monkeypatch.setattr(os, "cpu_count", lambda: None)
        assert pipeline._available_cpus() == 1

    def test_empty_directory_opens_no_pool(self, tmp_path, monkeypatch):
        pools = _PoolSizes(monkeypatch)
        config = RunConfig(input_path=str(tmp_path), input_kind="signals")
        with pytest.raises(PipelineError, match="fewer than 4 subjects"):
            run_pipeline(config)
        assert pools.sizes == []

    def test_unexpected_worker_error_keeps_its_type(self, signals_dir, monkeypatch):
        real = pipeline._row_from_signal_file

        def failing(path):
            if path.name == "s04_supine.csv":
                raise RuntimeError("unexpected")
            return real(path)

        monkeypatch.setattr(pipeline, "_row_from_signal_file", failing)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        with pytest.raises(RuntimeError, match="^unexpected$"):
            pipeline._table_from_signals(signals_dir, [])
        assert multiprocessing.active_children() == []

    def test_dead_worker_exits_2_with_one_line(self, signals_dir, tmp_path, monkeypatch, capsys):
        real = pipeline._row_from_signal_file

        def dying(path):
            if path.name == "s04_supine.csv":
                os._exit(1)
            return real(path)

        monkeypatch.setattr(pipeline, "_row_from_signal_file", dying)
        monkeypatch.setattr(os, "sched_getaffinity", lambda pid: {0, 1}, raising=False)
        config = RunConfig(input_path=str(signals_dir), input_kind="signals")
        with pytest.raises(PipelineError, match="^signal extraction worker stopped: "):
            run_pipeline(config)
        code = main([
            "analyze", "--input", str(signals_dir), "--input-kind", "signals",
            "--positions", "supine", "--methods", "hc", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith("analysis failed: signal extraction worker stopped: ")
        assert multiprocessing.active_children() == []

    def test_workers_end_with_a_killed_run(self, tmp_path):
        for name in ("a_supine.csv", "b_supine.csv"):
            (tmp_path / name).write_text("t,ecg,ip\n", "utf-8")
        probe = (
            "import os, sys, time\n"
            "from pathlib import Path\n"
            "from cardiocausal import pipeline\n"
            "def stuck(path):\n"
            "    print(os.getpid(), flush=True)\n"
            "    time.sleep(60)\n"
            "pipeline._row_from_signal_file = stuck\n"
            "os.sched_getaffinity = lambda pid: {0}\n"  # one worker, the one that prints
            "pipeline._table_from_signals(Path(sys.argv[1]), [])\n"
        )
        src = os.path.dirname(os.path.dirname(cardiocausal.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        with subprocess.Popen(
            [sys.executable, "-c", probe, str(tmp_path)], env=env, stdout=subprocess.PIPE,
            text=True,
        ) as run:
            worker = int(run.stdout.readline())
            run.kill()
        try:
            deadline = time.monotonic() + 30.0
            while _alive(worker) and time.monotonic() < deadline:
                time.sleep(0.05)
            assert not _alive(worker)
        finally:
            if _alive(worker):
                os.kill(worker, signal.SIGKILL)


def _alive(pid: int) -> bool:
    """Whether process ``pid`` exists and is not a zombie."""
    try:
        stat = Path(f"/proc/{pid}/stat").read_text()
    except FileNotFoundError:
        return False
    return stat.rpartition(")")[2].split()[0] != "Z"


def _cohort_csv_with(path, standing_rows=60, supine_rows=60, constant_in=None):
    """sem_cohort(60, seed=0) as CSV, with each position cut to its first
    rows and, in position ``constant_in``, RR constant."""
    table, _ = sem_cohort(60, seed=0)
    keep = {Position.SUPINE: supine_rows, Position.STANDING: standing_rows}
    rows = []
    for row in table.rows:
        if int(row.subject_id[1:]) > keep[row.position]:
            continue
        if row.position.value == constant_in:
            row = replace(row, params={**row.params, "RR": 14.0})
        rows.append(row)
    save_parameter_table(ParameterTable(rows=tuple(rows)), path)
    return path


class _Forks:
    """Counts the processes the pipeline forks."""

    def __init__(self, monkeypatch):
        self.count = 0
        real = os.fork

        def fork():
            self.count += 1
            return real()

        monkeypatch.setattr(os, "fork", fork)


def _on_cpus(monkeypatch, cpus):
    monkeypatch.setattr(os, "sched_getaffinity", lambda pid: cpus, raising=False)


def _raise_unpicklable():
    raise RuntimeError(threading.Lock())


class _TwoArgumentError(Exception):
    """Pickles, but cannot be unpickled: its arguments hold only the first."""

    def __init__(self, first, second):
        super().__init__(first)


def _raise_unreadable():
    raise _TwoArgumentError("first", "second")


class TestConcurrentPositions:
    """Positions analysed one after the other (one CPU) and the second in a
    forked child (two CPUs) give the same outputs, warnings and exit code."""

    @pytest.fixture(autouse=True)
    def _no_child_left(self):
        yield
        with pytest.raises(ChildProcessError):
            os.waitpid(-1, os.WNOHANG)

    def _cli_run(self, monkeypatch, capsys, tmp_path, cpus, argv):
        _on_cpus(monkeypatch, cpus)
        forks = _Forks(monkeypatch)
        out = tmp_path / f"out-{len(cpus)}"
        code = main(["analyze", *argv, "--out", str(out)])
        files = {f.name: f.read_bytes() for f in out.iterdir()} if out.exists() else {}
        return code, capsys.readouterr(), files, forks.count

    @pytest.mark.parametrize(
        "case", ["default", "standing-fails", "supine-fails", "one-position"]
    )
    def test_one_and_two_cpus_agree(self, case, tmp_path, monkeypatch, capsys):
        path = tmp_path / "params.csv"
        flags = ["--mediation", "cInsV,ciRR,HR"]
        if case == "standing-fails":
            # cam needs 50 rows; standing's constant-column warning comes first
            _cohort_csv_with(path, standing_rows=40, constant_in="standing")
        elif case == "supine-fails":
            # hc needs more rows than the 10 post-hoc columns; standing's
            # constant-column warning must not be shown
            _cohort_csv_with(path, supine_rows=10, constant_in="standing")
            flags = ["--methods", "gc,hc", "--mask-derived", "post-hoc"]
        else:
            _cohort_csv_with(path)
        if case == "one-position":
            flags += ["--positions", "standing"]
        argv = ["--input", str(path), "--input-kind", "params", *flags]
        code, output, files, forks = self._cli_run(monkeypatch, capsys, tmp_path, {0}, argv)
        code2, output2, files2, forks2 = self._cli_run(
            monkeypatch, capsys, tmp_path, {0, 1}, argv
        )
        assert (code2, output2.err, files2) == (code, output.err, files)
        assert output2.out.replace("out-2", "out-1") == output.out
        assert (forks, forks2) == (0, 0 if case == "one-position" else 1)
        err = output.err.splitlines()
        if case == "standing-fails":
            assert code == 2
            assert "warning: correlation matrix for standing: RR is constant; " in output.err
            assert err[-1].startswith("analysis failed: cam search for standing: ")
        elif case == "supine-fails":
            assert code == 2
            assert "standing" not in output.err
            assert err[-1] == "analysis failed: hc search for supine: need more rows than columns"
        else:
            assert (code, err) == (0, [])
            assert "report.json" in files

    @pytest.mark.parametrize(
        "stop, reason",
        [
            (lambda: os._exit(1), "exit code 1"),
            (lambda: os.kill(os.getpid(), signal.SIGKILL), "killed by signal 9"),
            (_raise_unpicklable, "its result cannot be pickled: "),
            (_raise_unreadable, "its result cannot be read: "),
        ],
        ids=["exit", "killed", "unpicklable", "unreadable"],
    )
    def test_child_without_a_result_exits_2_with_one_line(
        self, stop, reason, cohort_csv, tmp_path, monkeypatch, capsys
    ):
        real = pipeline._position_result

        def stopping(table, pos, config):
            if pos is Position.STANDING:
                stop()
            return real(table, pos, config)

        monkeypatch.setattr(pipeline, "_position_result", stopping)
        _on_cpus(monkeypatch, {0, 1})
        config = RunConfig(input_path=str(cohort_csv), input_kind="params", methods=("hc",))
        message = f"position worker for standing stopped: {reason}"
        with pytest.raises(PipelineError, match=f"^{message}"):
            run_pipeline(config)
        code = main([
            "analyze", "--input", str(cohort_csv), "--input-kind", "params",
            "--methods", "hc", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1
        assert err[0].startswith(f"analysis failed: {message}")

    def test_child_is_killed_when_this_process_fails(self, cohort_csv, monkeypatch):
        def stuck(table, pos, config):
            if pos is Position.SUPINE:
                raise RuntimeError("supine")
            time.sleep(60)

        monkeypatch.setattr(pipeline, "_position_result", stuck)
        _on_cpus(monkeypatch, {0, 1})
        forks = _Forks(monkeypatch)
        config = RunConfig(input_path=str(cohort_csv), input_kind="params", methods=("hc",))
        start = time.monotonic()
        with pytest.raises(RuntimeError, match="^supine$"):
            run_pipeline(config)
        assert forks.count == 1
        assert time.monotonic() - start < 30.0

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_unexpected_error_keeps_its_type(self, cohort_csv, monkeypatch, cpus):
        real = pipeline._position_result

        def failing(table, pos, config):
            if pos is Position.STANDING:
                raise RuntimeError("unexpected")
            return real(table, pos, config)

        monkeypatch.setattr(pipeline, "_position_result", failing)
        _on_cpus(monkeypatch, cpus)
        config = RunConfig(input_path=str(cohort_csv), input_kind="params", methods=("hc",))
        with pytest.raises(RuntimeError, match="^unexpected$"):
            run_pipeline(config)

    def test_python_warnings_reach_the_parent(self, cohort_csv, monkeypatch):
        real = pipeline._position_result

        def warning(table, pos, config):
            warnings.warn(f"only in {pos.value}", UserWarning)
            warnings.warn("in each position", UserWarning)
            return real(table, pos, config)

        monkeypatch.setattr(pipeline, "_position_result", warning)
        config = RunConfig(input_path=str(cohort_csv), input_kind="params", methods=("hc",))
        seen = {}
        for cpus in ({0}, {0, 1}):
            _on_cpus(monkeypatch, cpus)
            for action in ("always", "default"):
                with warnings.catch_warnings(record=True) as caught:
                    warnings.simplefilter(action)
                    run_pipeline(config)
                seen[len(cpus), action] = [
                    (str(w.message), w.category, w.filename, w.lineno) for w in caught
                ]
            # under the suite's filter, error, the first one raises
            with pytest.raises(UserWarning, match="^only in supine$"):
                run_pipeline(config)
        assert [message for message, *_ in seen[1, "always"]] == [
            "only in supine", "in each position", "only in standing", "in each position"
        ]
        # shown once per place and text, as in one process
        assert [message for message, *_ in seen[1, "default"]] == [
            "only in supine", "in each position", "only in standing"
        ]
        assert seen[2, "always"] == seen[1, "always"]
        assert seen[2, "default"] == seen[1, "default"]

    @pytest.mark.parametrize("cpus", [{0}, {0, 1}])
    def test_warning_raised_only_in_standing(self, cohort_csv, monkeypatch, cpus):
        real = pipeline._position_result

        def warning(table, pos, config):
            if pos is Position.STANDING:
                warnings.warn("standing", UserWarning)
            return real(table, pos, config)

        monkeypatch.setattr(pipeline, "_position_result", warning)
        _on_cpus(monkeypatch, cpus)
        config = RunConfig(input_path=str(cohort_csv), input_kind="params", methods=("hc",))
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            run_pipeline(config)
        assert [(str(w.message), w.category) for w in caught] == [("standing", UserWarning)]
        with pytest.raises(UserWarning, match="^standing$"):
            run_pipeline(config)


class TestPairedSkipWarning:
    def test_few_common_subjects_skips_paired_tests(self, tmp_path):
        table, _ = sem_cohort(25, seed=3)
        rows = []
        for row in table.rows:
            if row.position is Position.STANDING:
                shifted = int(row.subject_id[1:]) + 20
                rows.append(replace(row, subject_id=f"s{shifted:03d}"))
            else:
                rows.append(row)
        path = tmp_path / "split.csv"
        save_parameter_table(ParameterTable(tuple(rows)), path)
        config = RunConfig(input_path=str(path), input_kind="params", methods=("hc",))
        report = run_pipeline(config)
        assert report.paired_tests == ()
        assert any("paired tests skipped" in w for w in report.warnings)


def _constant_rr_csv(tmp_path, value=14.0):
    """``sem_cohort(100, seed=0)`` with RR = ``value`` in every row."""
    table, _ = sem_cohort(100, seed=0)
    rows = [replace(row, params={**row.params, "RR": value}) for row in table.rows]
    path = tmp_path / f"constant_{value}.csv"
    save_parameter_table(ParameterTable(rows=tuple(rows)), path)
    return path


def _shifted_hr_csv(tmp_path):
    """``sem_cohort(30, seed=0)`` with standing HR = supine HR + 5 exactly:
    the differences are constant, so the paired t statistic is infinite."""
    table, _ = sem_cohort(30, seed=0)
    hr = {row.subject_id: float(round(row.params["HR"])) for row in table.rows}
    shift = {Position.SUPINE: 0.0, Position.STANDING: 5.0}
    rows = [
        replace(row, params={**row.params, "HR": hr[row.subject_id] + shift[row.position]})
        for row in table.rows
    ]
    path = tmp_path / "shifted.csv"
    save_parameter_table(ParameterTable(tuple(rows)), path)
    return path


def _reference_consensus(graphs):
    """The former consensus: supporting and undirected vote maps, then every
    key and its reverse."""
    nodes = tuple(graphs[0][1].nodes)
    support, undirected = defaultdict(set), defaultdict(set)
    for method, graph in graphs:
        for a, b in graph.directed:
            support[(a, b)].add(method)
        for a, b in map(tuple, graph.undirected):
            undirected[(a, b)].add(method)
            undirected[(b, a)].add(method)
    keys = set(support) | set(undirected)
    keys |= {(b, a) for a, b in keys}
    edge_votes = {
        (a, b): EdgeVotes(
            supporting=frozenset(support.get((a, b), ())),
            opposing=frozenset(support.get((b, a), ())),
            undirected=frozenset(undirected.get((a, b), ())),
        )
        for a, b in sorted(keys)
    }
    return ConsensusGraph(nodes, edge_votes, len(graphs), tuple(m for m, _ in graphs))


def _reference_to_json(report):
    """The former ``CausalReport.to_json``, field by field."""

    def finite_or_null(value):
        return value if math.isfinite(value) else None

    config = report.config
    payload = {
        "config": {
            "input_path": config.input_path,
            "input_kind": config.input_kind,
            "positions": list(config.positions),
            "methods": list(config.methods),
            "seed": config.seed,
            "mask_derived": config.mask_derived,
            "mediation_paths": [list(p) for p in config.mediation_paths],
        },
        "warnings": list(report.warnings),
        "paired_tests": [
            {
                "parameter": t.parameter,
                "test_used": t.test_used.value,
                "statistic": finite_or_null(t.statistic),
                "p_value": finite_or_null(t.p_value),
                "normality_p": finite_or_null(t.normality_p),
            }
            for t in report.paired_tests
        ],
        "correlations": {
            pos: {
                "names": list(PARAMETER_NAMES),
                "matrix": [[finite_or_null(v) for v in row] for row in matrix.tolist()],
            }
            for pos, matrix in report.correlations.items()
        },
        "methods": {
            pos: {name: g.payload() for name, g in graphs.items()}
            for pos, graphs in report.method_graphs.items()
        },
        "consensus": {
            pos: {
                "nodes": list(cg.nodes),
                "total_methods": cg.total_methods,
                "methods": list(cg.methods),
                "votes": [
                    {
                        "from": a,
                        "to": b,
                        "supporting": sorted(v.supporting),
                        "opposing": sorted(v.opposing),
                        "undirected": sorted(v.undirected),
                    }
                    for (a, b), v in sorted(cg.edge_votes.items())
                ],
            }
            for pos, cg in report.consensus_graphs.items()
        },
        "mediation": [
            {
                "position": pos,
                "path": list(fit.path),
                **{
                    name: finite_or_null(getattr(fit, name))
                    for name in (
                        "a_hat", "se_a", "b_hat", "se_b", "direct_effect",
                        "indirect_effect", "sobel_z", "sobel_p",
                    )
                },
            }
            for pos, fit in report.mediation_results
        ],
    }
    return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _assert_matches_references(report):
    assert report.to_json() == _reference_to_json(report)
    for pos, graphs in report.method_graphs.items():
        expected = _reference_consensus(list(graphs.items()))
        assert consensus(list(graphs.items())) == expected
        assert report.consensus_graphs[pos] == expected


@st.composite
def _method_graph_lists(draw):
    """One to six (method, EdgeGraph) pairs over one drawn node set."""
    nodes = tuple(draw(st.permutations(PARAMETER_NAMES))[: draw(st.integers(2, 6))])
    methods = draw(st.lists(st.sampled_from(METHOD_NAMES + ("x",)), min_size=1, max_size=6))
    return [(method, EdgeGraph(nodes, *_draw_edges(draw, nodes))) for method in methods]


class TestReportAgainstReferences:
    """``to_json`` and ``consensus`` give what their former, field-by-field
    forms gave."""

    @pytest.mark.parametrize("mask", ["exclude", "post-hoc"])
    @pytest.mark.parametrize("seed", range(4))
    def test_cohorts(self, tmp_path, seed, mask):
        table, _ = sem_cohort(100, seed=seed)
        path = tmp_path / "params.csv"
        save_parameter_table(table, path)
        report = run_pipeline(RunConfig(
            input_path=str(path), input_kind="params", seed=seed, mask_derived=mask,
            mediation_paths=(("cInsV", "ciRR", "HR"), ("HR", "RR", "cInsT")),
        ))
        assert len(report.mediation_results) == 4
        _assert_matches_references(report)

    def test_non_finite_statistic(self, tmp_path):
        report = run_pipeline(RunConfig(
            input_path=str(_shifted_hr_csv(tmp_path)), input_kind="params",
            methods=("gc", "hc"), mediation_paths=(("cInsV", "ciRR", "HR"),),
        ))
        assert any(not math.isfinite(t.statistic) for t in report.paired_tests)
        _assert_matches_references(report)

    def test_constant_column_and_a_mediation_path_that_warns(self, tmp_path):
        report = run_pipeline(RunConfig(
            input_path=str(_constant_rr_csv(tmp_path)), input_kind="params",
            methods=("gc", "hc", "tabu", "fges"),
            mediation_paths=(("HR", "RR", "cInsT"), ("cInsV", "ciRR", "HR")),
        ))
        assert any(w.startswith("mediation HR->RR->cInsT") for w in report.warnings)
        assert np.isnan(report.correlations["supine"]).sum() > len(PARAMETER_NAMES)
        _assert_matches_references(report)

    def test_single_position_library_run(self, cohort_csv):
        config = RunConfig(
            input_path=str(cohort_csv), input_kind="params", positions=("standing",),
            methods=("fges", "gc"), mediation_paths=(("cInsV", "ciRR", "HR"),),
        )
        assert config.out_dir is None
        report = run_pipeline(config)
        assert report.paired_tests == ()
        _assert_matches_references(report)

    @settings(max_examples=200, deadline=None)
    @given(_method_graph_lists())
    def test_consensus_of_drawn_graphs(self, graphs):
        assert consensus(graphs) == _reference_consensus(graphs)


@dataclass(frozen=True)
class _Inner:
    kind: Position
    values: np.ndarray


@dataclass(frozen=True)
class _Outer:
    name: str
    count: int
    flag: bool
    missing: None
    inner: tuple[_Inner, ...]
    groups: frozenset[frozenset[str]]


class TestPlain:
    def test_nested_dataclasses(self):
        outer = _Outer(
            name="x", count=3, flag=True, missing=None,
            inner=(_Inner(Position.SUPINE, np.array([[1.0, np.nan], [np.inf, -np.inf]])),),
            groups=frozenset({frozenset({"b", "a"}), frozenset({"a"})}),
        )
        assert pipeline._plain(outer) == {
            "name": "x", "count": 3, "flag": True, "missing": None,
            "inner": [{"kind": "supine", "values": [[1.0, None], [None, None]]}],
            "groups": [["a"], ["a", "b"]],
        }

    @pytest.mark.parametrize(
        "value, expected",
        [
            (None, None), (True, True), (False, False), (0, 0), (-7, -7), (2.5, 2.5),
            (float("nan"), None), (float("inf"), None), (np.float64(-np.inf), None),
            ("NaN", "NaN"), (Position.STANDING, "standing"),
            ({"b", "c", "a"}, ["a", "b", "c"]), (("a", ("b", 1.0)), ["a", ["b", 1.0]]),
            ({"k": [float("nan"), 1]}, {"k": [None, 1]}),
            (np.array([1, 2]), [1, 2]), (np.array([]), []),
        ],
    )
    def test_values(self, value, expected):
        got = pipeline._plain(value)
        assert got == expected
        assert type(got) is type(expected)

    @pytest.mark.parametrize("value", [Path("p"), np.int64(1), object()])
    def test_other_types_are_a_type_error(self, value):
        with pytest.raises(TypeError):
            pipeline._plain(value)

    def test_config_omits_nothing_but_out_dir(self, full_report):
        payload = json.loads(full_report.to_json())
        assert set(payload["config"]) == {f.name for f in fields(RunConfig)} - {"out_dir"}
        assert set(payload["paired_tests"][0]) == {f.name for f in fields(PairedTestResult)}
        assert set(payload["mediation"][0]) == {f.name for f in fields(MediationFit)} | {
            "position"
        }


def _fresh_python(code: str, cwd=None) -> subprocess.CompletedProcess:
    """Run ``code`` in a new interpreter that imports this checkout's package."""
    src = os.path.dirname(os.path.dirname(cardiocausal.__file__))
    env = {**os.environ, "PYTHONPATH": src}
    return subprocess.run(
        [sys.executable, "-c", code], cwd=cwd, env=env, capture_output=True, text=True,
        timeout=120,
    )


class TestCli:
    def test_import_loads_no_scipy_stats_interpolate_or_sparse(self):
        # a fresh interpreter: this one has imported scipy.stats for the oracles
        done = _fresh_python(
            "import sys, cardiocausal.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate', 'scipy.sparse') "
            "if m in sys.modules))"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_package_import_loads_no_submodule(self):
        # the modules are the API; the package itself re-exports nothing
        done = _fresh_python(
            "import sys, cardiocausal; "
            "print(sorted(m for m in sys.modules if m.startswith('cardiocausal.')))"
        )
        assert done.returncode == 0, done.stderr
        assert done.stdout.strip() == "[]"

    def test_readme_library_example_runs(self, tmp_path):
        readme = (Path(__file__).parents[1] / "README.md").read_text("utf-8")
        section = readme.split("\n## Library use\n", 1)[1].split("\n## ", 1)[0]
        example = section.split("```python\n", 1)[1].split("```", 1)[0]
        table, _ = sem_cohort(100, seed=0)
        save_parameter_table(table, tmp_path / "params.csv")
        done = _fresh_python(example, cwd=tmp_path)
        assert done.returncode == 0, done.stderr

    def test_successful_run_writes_all_outputs(self, cohort_csv, tmp_path, capsys):
        out = tmp_path / "out"
        code = main([
            "analyze", "--input", str(cohort_csv), "--input-kind", "params",
            "--out", str(out),
            "--mediation", "cInsV,ciRR,HR", "--mediation", "HR,RR,cInsT",
        ])
        assert code == 0
        assert "report written" in capsys.readouterr().out
        expected = {
            "report.json", "params.csv",
            "correlations_supine.csv", "correlations_standing.csv",
            "consensus_supine.dot", "consensus_standing.dot",
        } | {
            f"method_{m}_{p}.dot"
            for m in ("gc", "hc", "tabu", "fges", "cam")
            for p in ("supine", "standing")
        }
        assert {f.name for f in out.iterdir()} == expected
        payload = json.loads((out / "report.json").read_text("utf-8"))
        assert len(payload["mediation"]) == 4
        assert payload["config"]["seed"] == 0

    def test_rerun_report_is_byte_identical(self, cohort_csv, tmp_path):
        outs = []
        for sub in ("a", "b"):
            out = tmp_path / sub
            assert main([
                "analyze", "--input", str(cohort_csv), "--input-kind", "params",
                "--methods", "gc,hc,fges", "--out", str(out),
            ]) == 0
            outs.append((out / "report.json").read_bytes())
        assert outs[0] == outs[1]

    def test_non_utf8_signal_file_becomes_warning(self, signals_dir, tmp_path, capsys):
        records = tmp_path / "records"
        shutil.copytree(signals_dir, records)
        (records / "sYY_supine.csv").write_bytes(b"t,ecg,ip\n0.0,\xff,0.0\n")
        code = main([
            "analyze", "--input", str(records), "--input-kind", "signals",
            "--positions", "supine", "--methods", "hc", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 2
        assert err[1].startswith("warning: sYY_supine.csv: ")
        assert err[1].endswith("not UTF-8 text")
        report = json.loads((tmp_path / "out" / "report.json").read_text("utf-8"))
        assert len(report["warnings"]) == 2

    def test_unreadable_and_oversized_signal_files_become_warnings(
        self, signals_dir, tmp_path, monkeypatch, capsys
    ):
        records = tmp_path / "records"
        shutil.copytree(signals_dir, records)
        (records / "sYY_supine.csv").write_bytes(b"t,ecg,ip\n" + b"x" * 131073 + b",0,0\n")
        (records / "sZZ_supine.csv").write_bytes(b"t,ecg,ip\n0.0,0.0,0.0\n0.004,abc,0.0\n")
        real_open = Path.open

        def open_unless_s03(self, *args, **kwargs):
            if self.name == "s03_supine.csv":
                raise PermissionError(errno.EACCES, os.strerror(errno.EACCES), str(self))
            return real_open(self, *args, **kwargs)

        # the forked workers inherit the patch
        monkeypatch.setattr(Path, "open", open_unless_s03)
        code = main([
            "analyze", "--input", str(records), "--input-kind", "signals",
            "--positions", "supine", "--methods", "hc", "--out", str(tmp_path / "out"),
        ])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        # each record is named once, without the input directory
        assert err == [
            "warning: s03_supine.csv: cannot read: Permission denied",
            "warning: sXX_supine.csv: malformed header ['time', 'volts']; expected t,ecg,ip",
            "warning: sYY_supine.csv: malformed CSV: field larger than field limit (131072)",
            "warning: sZZ_supine.csv:3: not a number: 'abc'",
        ]

    def test_oversized_params_cell_exits_2_with_one_line(self, cohort_csv, tmp_path, capsys):
        path = tmp_path / "big.csv"
        path.write_bytes(cohort_csv.read_bytes() + b"x" * 131073 + b"\n")
        code = main([
            "analyze", "--input", str(path), "--input-kind", "params",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines() == [
            f"analysis failed: {path}: malformed CSV: field larger than field limit (131072)"
        ]

    def test_signals_output_reloads_as_params_input(self, mixed_signals_dir, tmp_path, capsys):
        out = tmp_path / "out"
        argv = ["--positions", "supine", "--methods", "hc", "--out"]
        code = main([
            "analyze", "--input", str(mixed_signals_dir), "--input-kind", "signals", *argv,
            str(out),
        ])
        assert code == 0
        err = capsys.readouterr().err.splitlines()
        assert [line for line in err if line.startswith("warning: _supine.csv:")] == [
            "warning: _supine.csv: cannot infer subject/position from file name"
            " '_supine.csv'; expected <subject_id>_<position>.csv"
        ]
        code = main([
            "analyze", "--input", str(out / "params.csv"), "--input-kind", "params", *argv,
            str(tmp_path / "again"),
        ])
        assert code == 0
        assert capsys.readouterr().err == ""
        assert (tmp_path / "again" / "params.csv").read_bytes() == (out / "params.csv").read_bytes()

    def test_gc_skipped_pairs_reach_the_report(self, tmp_path, capsys):
        # 12 subjects are too few for the generalized correlation of any pair
        table, _ = sem_cohort(12, seed=0)
        path = tmp_path / "small.csv"
        save_parameter_table(table, path)
        out = tmp_path / "out"
        code = main([
            "analyze", "--input", str(path), "--input-kind", "params",
            "--methods", "gc,hc", "--out", str(out),
        ])
        assert code == 0
        warnings = json.loads((out / "report.json").read_text("utf-8"))["warnings"]
        assert warnings == [
            f"gc search for {pos}: skipping pair ({a}, {b}): need at least 20 observations"
            for pos in ("supine", "standing")
            for a, b in combinations(STRUCTURE_NAMES, 2)
        ]
        assert len(warnings) == 56
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: {w}" for w in warnings]

    def test_fatal_analysis_exits_2(self, tmp_path, capsys):
        table, _ = sem_cohort(3, seed=1)
        path = tmp_path / "tiny.csv"
        save_parameter_table(table, path)
        code = main([
            "analyze", "--input", str(path), "--input-kind", "params",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        assert "analysis failed" in capsys.readouterr().err

    def test_collinear_columns_exit_2_for_cam(self, tmp_path, capsys):
        table, _ = sem_cohort(100, seed=0)
        rows = [
            replace(row, params={**row.params, "cInsT": row.params["cExpT"]})
            for row in table.rows
        ]
        path = tmp_path / "collinear.csv"
        save_parameter_table(ParameterTable(rows=tuple(rows)), path)
        code = main([
            "analyze", "--input", str(path), "--input-kind", "params",
            "--methods", "cam", "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err == ["analysis failed: cam search for supine: collinear columns"]

    def test_huge_column_runs_the_default_methods(self, tmp_path, capsys):
        # cInsV x 2**600: every result but mediation's effects, which keep the
        # column's units, is the plain table's
        table, _ = sem_cohort(100, seed=0)
        rows = [
            replace(row, params={**row.params, "cInsV": row.params["cInsV"] * 2.0**600})
            for row in table.rows
        ]
        reports = []
        for name, cohort in (("plain", table), ("huge", ParameterTable(rows=tuple(rows)))):
            save_parameter_table(cohort, tmp_path / f"{name}.csv")
            code = main([
                "analyze", "--input", str(tmp_path / f"{name}.csv"), "--input-kind", "params",
                "--out", str(tmp_path / name), "--mediation", "HR,RR,cInsT",
            ])
            assert code == 0
            assert capsys.readouterr().err == ""
            reports.append(json.loads((tmp_path / name / "report.json").read_text("utf-8")))
        plain, huge = reports
        del plain["config"], huge["config"]  # the input paths differ
        assert huge == plain

    def test_non_finite_statistic_is_null_in_report(self, tmp_path):
        path = _shifted_hr_csv(tmp_path)
        out = tmp_path / "out"
        code = main([
            "analyze", "--input", str(path), "--input-kind", "params",
            "--methods", "gc,hc", "--mediation", "cInsV,ciRR,HR", "--out", str(out),
        ])
        assert code == 0

        def reject(constant):
            raise ValueError(f"not valid JSON: {constant}")

        text = (out / "report.json").read_text("utf-8")
        report = json.loads(text, parse_constant=reject)
        hr = next(t for t in report["paired_tests"] if t["parameter"] == "HR")
        assert hr == {
            "parameter": "HR", "test_used": "paired_t",
            "statistic": None, "p_value": 0.0, "normality_p": 1.0,
        }

    @pytest.mark.parametrize("methods", ["gc,hc", "gc,hc,tabu,fges"])
    def test_constant_column_is_null_and_isolated(self, tmp_path, capsys, methods):
        path = _constant_rr_csv(tmp_path)
        out = tmp_path / "out"
        code = main([
            "analyze", "--input", str(path), "--input-kind", "params",
            "--methods", methods, "--out", str(out),
        ])
        assert code == 0
        report = json.loads((out / "report.json").read_text("utf-8"))
        others = [name for name in STRUCTURE_NAMES if name != "RR"]
        for pos in ("supine", "standing"):
            expected = [
                f"correlation matrix for {pos}: RR is constant; its correlations are null"
            ] + [
                f"gc search for {pos}: skipping pair ({a}, {b}): zero variance input"
                for a, b in (sorted(("RR", o), key=STRUCTURE_NAMES.index) for o in others)
            ]
            got = [w for w in report["warnings"] if f" for {pos}: " in w]
            assert got == expected
            i = PARAMETER_NAMES.index("RR")
            matrix = report["correlations"][pos]["matrix"]
            assert matrix[i] == [None] * len(PARAMETER_NAMES)
            assert [row[i] for row in matrix] == [None] * len(PARAMETER_NAMES)
            assert sum(v is not None for row in matrix for v in row) > 0
            lines = (out / f"correlations_{pos}.csv").read_text("utf-8").splitlines()
            assert lines[1 + i] == "RR" + "," * len(PARAMETER_NAMES)
            assert all(line.split(",")[1 + i] == "" for line in lines[1:])
            for method, graph in report["methods"][pos].items():
                edges = graph["directed"] + graph["undirected"]
                assert edges and all("RR" not in e for e in edges), method
        err = capsys.readouterr().err.splitlines()
        assert err == [f"warning: {w}" for w in report["warnings"]]

    def test_constant_column_still_stops_cam(self, tmp_path, capsys):
        path = _constant_rr_csv(tmp_path)
        code = main([
            "analyze", "--input", str(path), "--input-kind", "params",
            "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        err = capsys.readouterr().err.splitlines()
        assert err[-1] == "analysis failed: cam search for supine: degenerate column for smoother"
        assert all(line.startswith("warning: ") for line in err[:-1])
        assert "warning: correlation matrix for supine: RR is constant; its correlations are null" in err

    def test_constant_column_with_a_rounding_mean_is_constant(self, tmp_path, capsys):
        # np.std of RR = 0.2 in every row is about 5.6e-17, not 0
        reports = []
        for value in (14.0, 0.2):
            out = tmp_path / f"out_{value}"
            code = main([
                "analyze", "--input", str(_constant_rr_csv(tmp_path, value)),
                "--input-kind", "params", "--methods", "gc,hc", "--out", str(out),
            ])
            assert code == 0
            reports.append(json.loads((out / "report.json").read_text("utf-8")))
        assert len(reports[0]["warnings"]) == 17
        assert reports[1]["warnings"] == reports[0]["warnings"]
        assert reports[1]["correlations"] == reports[0]["correlations"]
        capsys.readouterr()
        code = main([
            "analyze", "--input", str(_constant_rr_csv(tmp_path, 0.2)), "--input-kind", "params",
            "--methods", "cam", "--out", str(tmp_path / "cam"),
        ])
        assert code == 2
        assert capsys.readouterr().err.splitlines()[-1] == (
            "analysis failed: cam search for supine: degenerate column for smoother"
        )

    @pytest.mark.parametrize(
        "methods, failing",
        [("gc,hc", "hc"), ("gc,tabu,hc", "tabu"), ("gc,fges,tabu", "fges")],
        ids=["hc", "tabu", "fges"],
    )
    def test_warnings_gathered_before_an_abort_are_printed(self, tmp_path, capsys, methods, failing):
        # 10 subjects: too few for gc's pairs, and hc, tabu and fges need more
        # rows than the 10 columns of a post-hoc design; the first of them to
        # run builds their shared scorer, and the abort names it
        table, _ = sem_cohort(10, seed=0)
        path = tmp_path / "small.csv"
        save_parameter_table(table, path)
        code = main([
            "analyze", "--input", str(path), "--input-kind", "params",
            "--mask-derived", "post-hoc", "--methods", methods, "--out", str(tmp_path / "out"),
        ])
        assert code == 2
        gc_skips = [
            f"gc search for supine: skipping pair ({a}, {b}): need at least 20 observations"
            for a, b in combinations(PARAMETER_NAMES, 2)
        ]
        assert len(gc_skips) == 45
        assert capsys.readouterr().err.splitlines() == [f"warning: {w}" for w in gc_skips] + [
            f"analysis failed: {failing} search for supine: need more rows than columns"
        ]
        config = RunConfig(
            input_path=str(path), input_kind="params", methods=tuple(methods.split(",")),
            mask_derived="post-hoc",
        )
        with pytest.raises(PipelineError, match=f"^{failing} search for supine") as exc:
            run_pipeline(config)
        assert exc.value.warnings == tuple(gc_skips)

    @pytest.mark.parametrize("below", [False, True], ids=["file", "below-a-file"])
    def test_out_that_cannot_be_a_directory_exits_3_before_the_analysis(
        self, cohort_csv, tmp_path, capsys, monkeypatch, below
    ):
        taken = tmp_path / "taken"
        taken.write_text("", encoding="utf-8")
        monkeypatch.setattr(cli, "run_pipeline", lambda config: pytest.fail("analysis ran"))
        code = main([
            "analyze", "--input", str(cohort_csv), "--input-kind", "params",
            "--out", str(taken / "sub" if below else taken),
        ])
        assert code == 3
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [f"error: --out must name a directory, and {taken} is not one"]

    def test_failed_write_exits_2_with_one_line(self, cohort_csv, tmp_path, capsys, monkeypatch):
        def disk_full(path, *args, **kwargs):
            raise OSError(errno.ENOSPC, os.strerror(errno.ENOSPC), str(path))

        monkeypatch.setattr(Path, "write_text", disk_full)
        out = tmp_path / "out"
        code = main([
            "analyze", "--input", str(cohort_csv), "--input-kind", "params",
            "--methods", "gc", "--out", str(out),
        ])
        assert code == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        assert err.splitlines() == [
            f"analysis failed: cannot write outputs: [Errno {errno.ENOSPC}] "
            f"{os.strerror(errno.ENOSPC)}: "
            f"'{out / 'report.json'}'"
        ]

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--input", "/nonexistent/path", "--input-kind", "params", "--out", "o"],
            ["analyze", "--input", ".", "--input-kind", "parquet", "--out", "o"],
            ["analyze", "--input", ".", "--input-kind", "params", "--out", "o",
             "--mediation", "HR,RR"],
            ["analyze", "--input", ".", "--input-kind", "params", "--out", "o",
             "--methods", "pc"],
            # a path component too long for the file system
            ["analyze", "--input", ".", "--input-kind", "params", "--out", "o" * 300],
            ["bogus-command"],
        ],
    )
    def test_invalid_invocations_exit_3(self, argv, capsys):
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err


_DERIVED_FREE = ("HR", "RMSSD", "RR", "ciRR", "cInsT", "cExpT", "cInsV", "cExpV")


def _cohort_text(n, seed, target=None, value_of=None):
    """``sem_cohort(n, seed)`` as parameter CSV text, with the ``target``
    column of each row set to ``value_of`` of the row's parameters."""
    table, _ = sem_cohort(n, seed=seed)
    lines = ["subject_id,position," + ",".join(PARAMETER_NAMES)]
    for row in table.rows:
        params = dict(row.params)
        if target is not None:
            params[target] = value_of(params)
        values = ",".join(repr(float(params[name])) for name in PARAMETER_NAMES)
        lines.append(f"{row.subject_id},{row.position.value},{values}")
    return "\n".join(lines) + "\n"


@st.composite
def _small_tables(draw):
    """A sem_cohort table of 4-70 subjects as CSV text, sometimes with one
    column made constant, a copy of another, or rounded."""
    n, seed = draw(st.integers(min_value=4, max_value=70)), draw(st.integers(0, 99))
    edit = draw(st.sampled_from(["none", "constant", "duplicate", "rounded"]))
    target = draw(st.sampled_from(PARAMETER_NAMES))
    if edit == "constant":
        # the mean of 0.1, 0.2 or 0.3 in every row can round, so np.std is not 0
        value = draw(st.sampled_from([14.0, 0.1, 0.2, 0.3]))
        return _cohort_text(n, seed, target, lambda params: value)
    if edit == "duplicate":
        source = draw(st.sampled_from(_DERIVED_FREE))
        return _cohort_text(n, seed, target, lambda params: params[source])
    if edit == "rounded":
        digits = draw(st.integers(min_value=0, max_value=2))
        return _cohort_text(n, seed, target, lambda params: round(params[target], digits))
    return _cohort_text(n, seed)


@settings(max_examples=40, deadline=None)
@given(
    _small_tables(),
    st.sampled_from(["exclude", "post-hoc"]),
    st.sampled_from(["gc,hc", "hc,tabu,fges", "cam", "gc,hc,tabu,fges,cam"]),
)
@example(_cohort_text(70, 0, "ciRR", lambda params: 0.1), "exclude", "gc,hc,tabu,fges,cam")
@example(_cohort_text(70, 1, "cInsT", lambda params: 0.2), "post-hoc", "gc,hc,tabu,fges,cam")
@example(_cohort_text(70, 2, "cExpV", lambda params: 0.3), "exclude", "gc,hc")
def test_cli_on_small_tables_exits_cleanly(tmp_path_factory, text, mask, methods):
    root = tmp_path_factory.mktemp("small")
    path = root / "params.csv"
    path.write_text(text, "utf-8")
    code = main([
        "analyze", "--input", str(path), "--input-kind", "params",
        "--mask-derived", mask, "--methods", methods, "--out", str(root / "out"),
    ])
    event(f"exit code {code}")
    assert code in (0, 2, 3)
