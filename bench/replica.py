"""Traced replica of ``run_pipeline`` for the benchmark's per-layer metrics.

``run_traced`` makes the same public calls as ``cardiocausal.pipeline.
run_pipeline``, in the same order, and wraps each call in a span.  The
benchmark compares the replica's ``report.json`` text with the CLI's, so the
replica cannot drift from the pipeline unnoticed.  ``layer_metrics`` turns
the spans into the ``per_layer`` metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import itertools
import time
from collections import Counter
from contextlib import contextmanager
from pathlib import Path

from cardiocausal.association import correlation_matrix, generalized_corr_pair
from cardiocausal.cardio_signals import detect_r_peaks, detrend_ecg, rr_intervals
from cardiocausal.mediation import mediation_fit
from cardiocausal.param_features import paired_compare, param_vector
from cardiocausal.pipeline import (
    STRUCTURE_NAMES,
    CausalReport,
    DirectedEdgeSet,
    RunConfig,
    _mask_ignored,
    consensus,
)
from cardiocausal.record_io import (
    PARAMETER_NAMES,
    ParameterTable,
    Position,
    load_parameter_table,
    load_signal_record,
    save_parameter_table,
)
from cardiocausal.resp_signals import delimit_breaths, remove_cardiac_component
from cardiocausal.structure_search import (
    SearchConfig,
    bic_score,
    cam_learn,
    fges,
    gc_graph,
    hill_climb,
    tabu_search,
)

ROOT_SPAN = "pipeline.run_pipeline"


class Tracer:
    """In-memory spans: [name, start, end, parent index], in start order."""

    def __init__(self):
        self.spans: list[list] = []
        self._open: list[int] = []

    @contextmanager
    def span(self, name: str):
        index = len(self.spans)
        self.spans.append([name, time.perf_counter(), None, self._open[-1] if self._open else None])
        self._open.append(index)
        try:
            yield
        finally:
            self._open.pop()
            self.spans[index][2] = time.perf_counter()

    def call(self, name: str, fn, *args, **kwargs):
        with self.span(name):
            return fn(*args, **kwargs)

    def durations(self, name: str) -> list[float]:
        return [end - start for n, start, end, _ in self.spans if n == name]

    def leaves(self) -> list[list]:
        parents = {parent for *_, parent in self.spans}
        return [s for i, s in enumerate(self.spans) if i not in parents]

    def to_json(self) -> list[dict]:
        t0 = self.spans[0][1] if self.spans else 0.0
        return [
            {"name": n, "start_s": start - t0, "end_s": end - t0, "parent": parent}
            for n, start, end, parent in self.spans
        ]


_SEARCHES = {
    "gc": lambda table, pos, design, names, cfg: DirectedEdgeSet(
        names, frozenset(gc_graph(table, pos, names))
    ),
    "hc": lambda table, pos, design, names, cfg: hill_climb(design, cfg, names=names),
    "tabu": lambda table, pos, design, names, cfg: tabu_search(design, cfg, names=names),
    "fges": lambda table, pos, design, names, cfg: fges(design, cfg, names=names),
    "cam": lambda table, pos, design, names, cfg: cam_learn(design, cfg, names=names),
}


def _signal_row(tr: Tracer, path: Path, counts: Counter):
    with tr.span("record"):
        record = tr.call("record_io.load_signal_record", load_signal_record, path)
        rate = record.sample_rate_hz
        ecg = tr.call("cardio_signals.detrend_ecg", detrend_ecg, record.ecg, rate)
        beats = tr.call("cardio_signals.detect_r_peaks", detect_r_peaks, ecg, rate)
        rr = tr.call("cardio_signals.rr_intervals", rr_intervals, beats)
        ip_clean = tr.call(
            "resp_signals.remove_cardiac_component", remove_cardiac_component, record.ip, ecg, rate
        )
        breaths = tr.call("resp_signals.delimit_breaths", delimit_breaths, ip_clean, rate)
        with tr.span("param_features.param_vector"):
            row = param_vector(rr, breaths).to_row(record.subject_id, record.position)
    counts["signal_rows"] += record.ecg.size
    counts["beats"] += len(beats.r_peak_times_s)
    counts["rr_rejected"] += len(beats.rr_intervals_ms) - rr.size
    counts["breaths"] += breaths.breath_count()
    return row


def run_traced(config: RunConfig, params_out: Path, tr: Tracer):
    """Replay ``run_pipeline(config)`` under ``tr``; valid input is assumed,
    so a failure that the pipeline would turn into a warning raises here.

    Returns (report JSON text, table, structure names, the design and the
    unmasked graph per (position, method), per-record counts).
    """
    counts: Counter = Counter()
    positions = [Position(p) for p in config.positions]
    names = STRUCTURE_NAMES if config.mask_derived == "exclude" else PARAMETER_NAMES
    search_config = SearchConfig(seed=config.seed)
    searched = {}
    with tr.span(ROOT_SPAN):
        if config.input_kind == "params":
            table = tr.call("record_io.load_parameter_table", load_parameter_table, config.input_path)
        else:
            rows = [
                _signal_row(tr, path, counts)
                for path in sorted(Path(config.input_path).glob("*.csv"))
            ]
            table = ParameterTable(tuple(rows))

        paired = []
        both = {Position.SUPINE, Position.STANDING} <= set(positions)
        common = set(table.subjects(Position.SUPINE)) & set(table.subjects(Position.STANDING))
        if both and len(common) >= 8:
            for name in PARAMETER_NAMES:
                supine, standing = tr.call("record_io.paired_columns", table.paired_columns, name)
                paired.append(
                    tr.call("param_features.paired_compare", paired_compare, supine, standing, name)
                )

        correlations, method_graphs, consensus_graphs = {}, {}, {}
        for pos in positions:
            with tr.span("position"):
                correlations[pos.value] = tr.call(
                    "association.correlation_matrix", correlation_matrix, table, pos
                )
                design = tr.call("record_io.matrix", table.matrix, pos, names)
                graphs = {}
                for method in config.methods:
                    graph = tr.call(
                        f"structure_search.{method}",
                        _SEARCHES[method], table, pos, design, names, search_config,
                    )
                    searched[(pos.value, method)] = (design, graph)
                    if config.mask_derived == "post-hoc":
                        graph = _mask_ignored(graph)
                    graphs[method] = graph
                method_graphs[pos.value] = graphs
                consensus_graphs[pos.value] = tr.call(
                    "pipeline.consensus", consensus, list(graphs.items())
                )

        mediation_results = []
        for pos in positions:
            for path in config.mediation_paths:
                columns = [tr.call("record_io.column", table.column, n, pos) for n in path]
                fit = tr.call("mediation.mediation_fit", mediation_fit, *columns, path=path)
                mediation_results.append((pos.value, fit))

        report = CausalReport(
            config=config,
            table=table,
            paired_tests=tuple(paired),
            correlations=correlations,
            method_graphs=method_graphs,
            consensus_graphs=consensus_graphs,
            mediation_results=tuple(mediation_results),
            warnings=(),
        )
        text = tr.call("pipeline.to_json", report.to_json)
        tr.call("record_io.save_parameter_table", save_parameter_table, table, params_out)
    return text, table, names, searched, counts


def gcorr_pair_times(table: ParameterTable, positions, names) -> list[float]:
    """Time ``generalized_corr_pair`` on columns extracted beforehand, for
    every pair of ``names``; empty when a position has fewer than 20 subjects."""
    if any(len(table.subjects(pos)) < 20 for pos in positions):
        return []
    times = []
    for pos in positions:
        columns = {n: table.column(n, pos) for n in names}
        for a, b in itertools.combinations(names, 2):
            start = time.perf_counter()
            generalized_corr_pair(columns[a], columns[b])
            times.append(time.perf_counter() - start)
    return times


def _mean(values) -> float:
    values = list(values)
    return sum(values) / len(values) if values else 0.0


def layer_metrics(tr: Tracer, report: dict, searched: dict, counts: Counter,
                  gcorr_times: list[float], untraced_s: float) -> dict[str, float]:
    """Per-layer metrics; a layer that does not run on the workload reads 0."""
    d = tr.durations
    lms = d("resp_signals.remove_cardiac_component")
    graphs_by_position = report["methods"].values()
    metrics = {
        "record_io.load_signal_s": _mean(d("record_io.load_signal_record")),
        "record_io.signal_rows": counts["signal_rows"],
        "record_io.load_params_s": sum(d("record_io.load_parameter_table")),
        "record_io.table_access_s": sum(
            sum(d(n)) for n in ("record_io.column", "record_io.matrix", "record_io.paired_columns")
        ),
        "record_io.save_params_s": sum(d("record_io.save_parameter_table")),
        "cardio_signals.detrend_s": _mean(d("cardio_signals.detrend_ecg")),
        "cardio_signals.rpeaks_s": _mean(d("cardio_signals.detect_r_peaks")),
        "cardio_signals.rr_filter_s": _mean(d("cardio_signals.rr_intervals")),
        "cardio_signals.beats": counts["beats"],
        "cardio_signals.rr_rejected": counts["rr_rejected"],
        "resp_signals.lms_s": _mean(lms),
        "resp_signals.lms_samples_per_s": counts["signal_rows"] / sum(lms) if lms else 0.0,
        "resp_signals.delimit_s": _mean(d("resp_signals.delimit_breaths")),
        "resp_signals.breaths": counts["breaths"],
        "param_features.vector_s": _mean(d("param_features.param_vector")),
        "param_features.paired_tests_s": sum(d("param_features.paired_compare")),
        "association.corr_matrix_s": _mean(d("association.correlation_matrix")),
        "association.gcorr_pair_s": _mean(gcorr_times),
        "mediation.fit_s": _mean(d("mediation.mediation_fit")),
        "pipeline.consensus_s": _mean(d("pipeline.consensus")),
        "pipeline.to_json_s": sum(d("pipeline.to_json")),
    }
    for method in _SEARCHES:
        metrics[f"structure_search.{method}_s"] = _mean(d(f"structure_search.{method}"))
        metrics[f"structure_search.{method}_edges"] = sum(
            len(graphs[method]["directed"]) + len(graphs[method]["undirected"])
            for graphs in graphs_by_position
            if method in graphs
        )
    for method in ("hc", "tabu"):
        metrics[f"structure_search.{method}_bic"] = _mean(
            bic_score(design, graph)
            for (_, m), (design, graph) in searched.items()
            if m == method
        )
    metrics["trace.layer_sum_s"] = sum(end - start for _, start, end, _ in tr.leaves())
    metrics["trace.overhead_s"] = sum(d(ROOT_SPAN)) - untraced_s
    return metrics


def shares(tr: Tracer) -> dict[str, float]:
    """Share of the replica's wall time spent in each leaf span name."""
    total = sum(tr.durations(ROOT_SPAN))
    by_name: Counter = Counter()
    for name, start, end, _ in tr.leaves():
        by_name[name] += end - start
    return {name: t / total for name, t in by_name.most_common()}
