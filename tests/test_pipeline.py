"""Tests for pipeline orchestration, consensus voting, masking, and the CLI."""

import json
import math
import shutil
from dataclasses import replace

import numpy as np
import pytest

from cardiocausal.cli import main
from cardiocausal.graphs import Cpdag, Dag
from cardiocausal.pipeline import (
    IGNORED_PAIRS,
    STRUCTURE_NAMES,
    ConfigError,
    ConsensusGraph,
    DirectedEdgeSet,
    PipelineError,
    RunConfig,
    _graph_edge_sets,
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
    return Dag(tuple(nodes), frozenset(edges))


class TestConsensus:
    def test_majority_vote_counts(self):
        nodes = ("A", "B")
        graphs = [(f"m{i}", dag(nodes, ("A", "B"))) for i in range(5)]
        graphs.append(("m5", Cpdag(nodes, frozenset(), frozenset({frozenset(("A", "B"))}))))
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
            ("fges", Cpdag(nodes, frozenset({("A", "B")}), frozenset({frozenset(("B", "C"))}))),
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
        assert cg.skeleton_pairs(min_methods=1) == [("A", "B"), ("B", "C")]

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
        assert g.sorted_edges() == [("A", "B"), ("B", "A")]


class TestMaskIgnored:
    def test_derived_pairs_dropped_from_all_graph_kinds(self):
        nodes = PARAMETER_NAMES
        kept = ("HR", "RR")
        masked_dag = _mask_ignored(
            dag(nodes, kept, ("RMSSD", "lnRMSSD"), ("BR", "ciRR"))
        )
        assert masked_dag.edges == frozenset({kept})
        masked_cp = _mask_ignored(
            Cpdag(
                nodes,
                frozenset({kept, ("lnRMSSD", "RMSSD")}),
                frozenset({frozenset(("BR", "cExpV"))}),
            )
        )
        assert masked_cp.directed_edges == frozenset({kept})
        assert masked_cp.undirected_edges == frozenset()
        masked_set = _mask_ignored(
            DirectedEdgeSet(nodes, frozenset({kept, ("cInsT", "BR")}))
        )
        assert masked_set.edges == frozenset({kept})

    def test_ignored_pairs_cover_derivations(self):
        assert frozenset(("RMSSD", "lnRMSSD")) in IGNORED_PAIRS
        for cv in ("ciRR", "cInsT", "cExpT", "cInsV", "cExpV"):
            assert frozenset(("BR", cv)) in IGNORED_PAIRS
        assert len(IGNORED_PAIRS) == 6


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

    def test_post_hoc_masking_reports_no_derived_edges(self, cohort_csv):
        config = RunConfig(
            input_path=str(cohort_csv), input_kind="params",
            methods=("gc", "hc", "fges"), mask_derived="post-hoc",
        )
        report = run_pipeline(config)
        for graphs in report.method_graphs.values():
            for graph in graphs.values():
                assert tuple(graph.nodes) == PARAMETER_NAMES
                directed, undirected = _graph_edge_sets(graph)
                for edge in directed | undirected:
                    assert frozenset(edge) not in IGNORED_PAIRS


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


class TestCli:
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

    @pytest.mark.parametrize(
        "argv",
        [
            ["analyze", "--input", "/nonexistent/path", "--input-kind", "params", "--out", "o"],
            ["analyze", "--input", ".", "--input-kind", "parquet", "--out", "o"],
            ["analyze", "--input", ".", "--input-kind", "params", "--out", "o",
             "--mediation", "HR,RR"],
            ["analyze", "--input", ".", "--input-kind", "params", "--out", "o",
             "--methods", "pc"],
            ["bogus-command"],
        ],
    )
    def test_invalid_invocations_exit_3(self, argv, capsys):
        assert main(argv) == 3
        assert "error:" in capsys.readouterr().err
