"""Tests for pipeline orchestration, consensus voting, masking, and the CLI."""

import errno
import json
import math
import os
import shutil
import subprocess
import sys
from dataclasses import replace
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
    STRUCTURE_NAMES,
    ConfigError,
    ConsensusGraph,
    DirectedEdgeSet,
    PipelineError,
    RunConfig,
    _mask_ignored,
    consensus,
    run_pipeline,
)
from cardiocausal.record_io import PARAMETER_NAMES, ParameterTable, Position, save_parameter_table
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


@st.composite
def _edge_graphs(draw):
    """(nodes, directed, undirected): parameter names in a drawn order, and for
    each pair no edge, either direction, both directions (a gc cycle) or an
    undirected edge."""
    names = draw(st.permutations(PARAMETER_NAMES))
    nodes = tuple(names[: draw(st.integers(2, len(names)))])
    directed, undirected = set(), set()
    for a, b in combinations(nodes, 2):
        kind = draw(st.sampled_from(("none", "ab", "ba", "both", "undirected")))
        if kind in ("ab", "both"):
            directed.add((a, b))
        if kind in ("ba", "both"):
            directed.add((b, a))
        if kind == "undirected":
            undirected.add(frozenset((a, b)))
    return nodes, frozenset(directed), frozenset(undirected)


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
    def test_one_bic_scorer_per_position(self, cohort_csv, methods, positions):
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
        assert len(report.warnings) == 1
        assert "sXX_supine.csv" in report.warnings[0]
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


def _constant_rr_csv(tmp_path):
    """``sem_cohort(100, seed=0)`` with RR = 14.0 in every row."""
    table, _ = sem_cohort(100, seed=0)
    rows = [replace(row, params={**row.params, "RR": 14.0}) for row in table.rows]
    path = tmp_path / "constant.csv"
    save_parameter_table(ParameterTable(rows=tuple(rows)), path)
    return path


class TestCli:
    def test_import_loads_no_scipy_stats_interpolate_or_sparse(self):
        # a fresh interpreter: this one has imported scipy.stats for the oracles
        probe = (
            "import sys, cardiocausal.cli; "
            "print(sorted(m for m in ('scipy.stats', 'scipy.interpolate', 'scipy.sparse') "
            "if m in sys.modules))"
        )
        src = os.path.dirname(os.path.dirname(cardiocausal.__file__))
        env = {**os.environ, "PYTHONPATH": src}
        done = subprocess.run(
            [sys.executable, "-c", probe], env=env, capture_output=True, text=True,
            timeout=120, check=True,
        )
        assert done.stdout.strip() == "[]"

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

    def test_non_finite_statistic_is_null_in_report(self, tmp_path):
        # standing HR = supine HR + 5 exactly: the differences are constant,
        # so the paired t statistic is infinite
        table, _ = sem_cohort(30, seed=0)
        hr = {row.subject_id: float(round(row.params["HR"])) for row in table.rows}
        shift = {Position.SUPINE: 0.0, Position.STANDING: 5.0}
        rows = [
            replace(row, params={**row.params, "HR": hr[row.subject_id] + shift[row.position]})
            for row in table.rows
        ]
        path = tmp_path / "shifted.csv"
        save_parameter_table(ParameterTable(tuple(rows)), path)
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


@st.composite
def _small_tables(draw):
    """A sem_cohort table of 4-70 subjects as CSV text, sometimes with one
    column made constant, a copy of another, or rounded."""
    table, _ = sem_cohort(draw(st.integers(min_value=4, max_value=70)), seed=draw(st.integers(0, 99)))
    rows = [dict(row.params) for row in table.rows]
    edit = draw(st.sampled_from(["none", "constant", "duplicate", "rounded"]))
    target = draw(st.sampled_from(PARAMETER_NAMES))
    if edit == "constant":
        for params in rows:
            params[target] = 14.0
    elif edit == "duplicate":
        source = draw(st.sampled_from(_DERIVED_FREE))
        for params in rows:
            params[target] = params[source]
    elif edit == "rounded":
        digits = draw(st.integers(min_value=0, max_value=2))
        for params in rows:
            params[target] = round(params[target], digits)
    lines = ["subject_id,position," + ",".join(PARAMETER_NAMES)]
    for row, params in zip(table.rows, rows):
        values = ",".join(repr(float(params[n])) for n in PARAMETER_NAMES)
        lines.append(f"{row.subject_id},{row.position.value},{values}")
    return "\n".join(lines) + "\n"


@settings(max_examples=40, deadline=None)
@given(
    _small_tables(),
    st.sampled_from(["exclude", "post-hoc"]),
    st.sampled_from(["gc,hc", "hc,tabu,fges", "cam", "gc,hc,tabu,fges,cam"]),
)
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
