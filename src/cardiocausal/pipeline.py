"""End-to-end orchestration: ingestion, features, statistics, structure
methods, consensus voting, mediation, and report emission.
"""

from __future__ import annotations

import json
import math
from collections import defaultdict
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from .association import AssociationError, correlation_matrix
from .cardio_signals import SignalError, detect_r_peaks, detrend_ecg, rr_intervals
from .graphs import EdgeGraph, dot_text
from .mediation import MediationError, MediationFit, mediation_fit
from .param_features import FeatureError, PairedTestResult, paired_compare, param_vector
from .record_io import (
    DERIVED_SOURCES,
    PARAMETER_NAMES,
    FormatError,
    ParameterTable,
    Position,
    load_parameter_table,
    load_signal_record,
    save_parameter_table,
)
from .resp_signals import delimit_breaths, remove_cardiac_component
from .structure_search import (
    SearchConfig,
    SearchError,
    _BicScorer,
    cam_learn,
    fges,
    gc_graph,
    hill_climb,
    tabu_search,
)

# Each structure method as (table, position, design, names, config,
# warnings) -> EdgeGraph; ``design`` is the table matrix over ``names``, or
# for the methods in _BIC_METHODS the position's shared BIC scorer of it.
_METHODS = {
    "gc": lambda table, pos, design, names, cfg, warnings: EdgeGraph(
        names, gc_graph(table, pos, names, warnings)
    ),
    "hc": lambda table, pos, design, names, cfg, warnings: hill_climb(design, cfg, names=names),
    "tabu": lambda table, pos, design, names, cfg, warnings: tabu_search(design, cfg, names=names),
    "fges": lambda table, pos, design, names, cfg, warnings: fges(design, cfg, names=names),
    "cam": lambda table, pos, design, names, cfg, warnings: cam_learn(design, cfg, names=names),
}

METHOD_NAMES = tuple(_METHODS)
_BIC_METHODS = frozenset({"hc", "tabu", "fges"})

# Pairs whose relationship is deterministic by construction and therefore
# never reported as a structure edge.
IGNORED_PAIRS: frozenset[frozenset[str]] = frozenset(
    frozenset((derived, source))
    for derived, sources in DERIVED_SOURCES.items()
    for source in sources
)

STRUCTURE_NAMES = tuple(n for n in PARAMETER_NAMES if n not in DERIVED_SOURCES)


class ConfigError(ValueError):
    """Invalid run configuration (exit code 3 at the CLI)."""


class PipelineError(RuntimeError):
    """Fatal cohort-level analysis failure (exit code 2 at the CLI).

    ``warnings`` holds the warnings the run gathered before it failed.
    """

    def __init__(self, message: str, warnings=()):
        super().__init__(message)
        self.warnings = tuple(warnings)


@dataclass(frozen=True)
class RunConfig:
    input_path: str
    input_kind: str
    positions: tuple[str, ...] = ("supine", "standing")
    methods: tuple[str, ...] = METHOD_NAMES
    seed: int = 0  # echoed in the report; every method is deterministic
    out_dir: str | None = None
    mask_derived: str = "exclude"
    mediation_paths: tuple[tuple[str, str, str], ...] = ()

    def __post_init__(self):
        if self.input_kind not in ("signals", "params"):
            raise ConfigError(f"unknown input kind {self.input_kind!r}")
        if not self.positions:
            raise ConfigError("at least one position required")
        for pos in self.positions:
            if pos not in ("supine", "standing"):
                raise ConfigError(f"unknown position {pos!r}")
        if len(set(self.positions)) != len(self.positions):
            raise ConfigError("duplicate position")
        if not self.methods:
            raise ConfigError("at least one method required")
        for m in self.methods:
            if m not in METHOD_NAMES:
                raise ConfigError(f"unknown method {m!r}")
        if len(set(self.methods)) != len(self.methods):
            raise ConfigError("duplicate method")
        if self.mask_derived not in ("exclude", "post-hoc"):
            raise ConfigError(f"unknown mask-derived mode {self.mask_derived!r}")
        for path in self.mediation_paths:
            if len(path) != 3 or len(set(path)) != 3:
                raise ConfigError(f"mediation path must name 3 distinct parameters: {path}")
            for name in path:
                if name not in PARAMETER_NAMES:
                    raise ConfigError(f"unknown parameter {name!r} in mediation path")


# bench/replica.py builds gc's graph under this name, as (nodes, edges).
DirectedEdgeSet = EdgeGraph


@dataclass(frozen=True)
class EdgeVotes:
    supporting: frozenset[str]
    opposing: frozenset[str]
    undirected: frozenset[str]

    def counts(self) -> tuple[int, int, int]:
        return (len(self.supporting), len(self.opposing), len(self.undirected))


@dataclass(frozen=True)
class ConsensusGraph:
    nodes: tuple[str, ...]
    edge_votes: dict[tuple[str, str], EdgeVotes]
    total_methods: int
    methods: tuple[str, ...] = field(default=())

    def votes_for(self, a: str, b: str) -> tuple[int, int, int]:
        votes = self.edge_votes.get((a, b))
        return votes.counts() if votes is not None else (0, 0, 0)

    def skeleton_pairs(self) -> list[tuple[str, str]]:
        """Unordered pairs with votes from a strict majority of the methods
        that ran."""
        idx = {v: i for i, v in enumerate(self.nodes)}
        pairs = set()
        for (a, b), votes in self.edge_votes.items():
            if sum(votes.counts()) > self.total_methods // 2:
                pairs.add(tuple(sorted((a, b), key=idx.__getitem__)))
        return sorted(pairs, key=lambda e: (idx[e[0]], idx[e[1]]))

    def to_dot(self, name: str = "consensus") -> str:
        """Each majority pair as an arrow in the direction more methods
        support, undirected on a tie."""
        edges = []
        for a, b in self.skeleton_pairs():
            n_ab, n_ba = self.votes_for(a, b)[0], self.votes_for(b, a)[0]
            edges.append((b, a, True) if n_ba > n_ab else (a, b, n_ab > n_ba))
        return dot_text(name, self.nodes, edges)


def consensus(graphs: list[tuple[str, EdgeGraph]]) -> ConsensusGraph:
    """Per-ordered-pair vote tally over method outputs.

    Each method contributes one vote per skeleton edge: supporting the pair's
    direction, opposing it (asserting the reverse), or undirected.
    """
    graphs = list(graphs)
    if not graphs:
        raise PipelineError("consensus requires at least one graph")
    nodes = tuple(graphs[0][1].nodes)
    support: dict[tuple[str, str], set[str]] = defaultdict(set)
    undirected: dict[tuple[str, str], set[str]] = defaultdict(set)
    for method, graph in graphs:
        if tuple(graph.nodes) != nodes:
            raise PipelineError("consensus inputs must share one node set")
        for a, b in graph.directed:
            support[(a, b)].add(method)
        for a, b in map(tuple, graph.undirected):
            undirected[(a, b)].add(method)
            undirected[(b, a)].add(method)

    keys = set(support) | set(undirected)
    keys |= {(b, a) for a, b in keys}
    edge_votes = {}
    for a, b in sorted(keys):
        edge_votes[(a, b)] = EdgeVotes(
            supporting=frozenset(support.get((a, b), ())),
            opposing=frozenset(support.get((b, a), ())),
            undirected=frozenset(undirected.get((a, b), ())),
        )
    return ConsensusGraph(
        nodes=nodes,
        edge_votes=edge_votes,
        total_methods=len(graphs),
        methods=tuple(m for m, _ in graphs),
    )


def _mask_ignored(graph: EdgeGraph) -> EdgeGraph:
    """Drop edges connecting a derived parameter with any of its sources."""
    return graph.without_pairs(IGNORED_PAIRS)


def _finite_or_null(value: float) -> float | None:
    """JSON has no infinities or NaN; report.json writes them as null."""
    return value if math.isfinite(value) else None


@dataclass(frozen=True)
class CausalReport:
    config: RunConfig
    table: ParameterTable
    paired_tests: tuple[PairedTestResult, ...]
    correlations: dict[str, np.ndarray]
    method_graphs: dict[str, dict[str, EdgeGraph]]
    consensus_graphs: dict[str, ConsensusGraph]
    mediation_results: tuple[tuple[str, MediationFit], ...]
    warnings: tuple[str, ...]

    def to_json(self) -> str:
        payload = {
            "config": {
                "input_path": self.config.input_path,
                "input_kind": self.config.input_kind,
                "positions": list(self.config.positions),
                "methods": list(self.config.methods),
                "seed": self.config.seed,
                "mask_derived": self.config.mask_derived,
                "mediation_paths": [list(p) for p in self.config.mediation_paths],
            },
            "warnings": list(self.warnings),
            "paired_tests": [
                {
                    "parameter": t.parameter,
                    "test_used": t.test_used.value,
                    "statistic": _finite_or_null(t.statistic),
                    "p_value": _finite_or_null(t.p_value),
                    "normality_p": _finite_or_null(t.normality_p),
                }
                for t in self.paired_tests
            ],
            "correlations": {
                pos: {
                    "names": list(PARAMETER_NAMES),
                    "matrix": [[_finite_or_null(v) for v in row] for row in matrix.tolist()],
                }
                for pos, matrix in self.correlations.items()
            },
            "methods": {
                pos: {name: g.payload() for name, g in graphs.items()}
                for pos, graphs in self.method_graphs.items()
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
                for pos, cg in self.consensus_graphs.items()
            },
            "mediation": [
                {
                    "position": pos,
                    "path": list(fit.path),
                    "a_hat": _finite_or_null(fit.a_hat),
                    "se_a": _finite_or_null(fit.se_a),
                    "b_hat": _finite_or_null(fit.b_hat),
                    "se_b": _finite_or_null(fit.se_b),
                    "direct_effect": _finite_or_null(fit.direct_effect),
                    "indirect_effect": _finite_or_null(fit.indirect_effect),
                    "sobel_z": _finite_or_null(fit.sobel_z),
                    "sobel_p": _finite_or_null(fit.sobel_p),
                }
                for pos, fit in self.mediation_results
            ],
        }
        return json.dumps(payload, sort_keys=True, indent=2, allow_nan=False) + "\n"


def _row_from_signal_file(path: Path):
    record = load_signal_record(path)
    rate = record.sample_rate_hz
    ecg = detrend_ecg(record.ecg, rate)
    beats = detect_r_peaks(ecg, rate)
    rr = rr_intervals(beats)
    ip_clean = remove_cardiac_component(record.ip, ecg, rate)
    breaths = delimit_breaths(ip_clean, rate)
    return param_vector(rr, breaths).to_row(record.subject_id, record.position)


def _table_from_signals(input_path: Path, warnings_list: list[str]) -> ParameterTable:
    if not input_path.is_dir():
        raise PipelineError(f"signal input must be a directory: {input_path}")
    rows = []
    for path in sorted(input_path.glob("*.csv")):
        try:
            rows.append(_row_from_signal_file(path))
        except (FormatError, SignalError, FeatureError) as exc:
            warnings_list.append(f"{path.name}: {exc}")
    try:
        return ParameterTable(tuple(rows))
    except FormatError as exc:
        raise PipelineError(str(exc), warnings_list) from None


def _write_outputs(report: CausalReport, out_dir: Path) -> None:
    out_dir.mkdir(parents=True, exist_ok=True)
    (out_dir / "report.json").write_text(report.to_json(), encoding="utf-8")
    save_parameter_table(report.table, out_dir / "params.csv")
    for pos, matrix in report.correlations.items():
        lines = ["," + ",".join(PARAMETER_NAMES)]
        for name, row in zip(PARAMETER_NAMES, matrix):
            cells = ["" if math.isnan(v) else repr(float(v)) for v in row]
            lines.append(name + "," + ",".join(cells))
        (out_dir / f"correlations_{pos}.csv").write_text("\n".join(lines) + "\n", "utf-8")
    for pos, graphs in report.method_graphs.items():
        for method, graph in graphs.items():
            dot = graph.to_dot(f"method_{method}_{pos}")
            (out_dir / f"method_{method}_{pos}.dot").write_text(dot, encoding="utf-8")
    for pos, cg in report.consensus_graphs.items():
        (out_dir / f"consensus_{pos}.dot").write_text(
            cg.to_dot(f"consensus_{pos}"), encoding="utf-8"
        )


def _method_graphs(
    table: ParameterTable, pos: Position, config: RunConfig, warnings_list: list[str]
) -> dict[str, EdgeGraph]:
    """The graph of each method of ``config`` for one position.

    hc, tabu and fges are handed one BIC scorer of the design, so they share
    its local scores and tabu continues from hc's climb.  The first of them
    to run builds it, so an error of the scorer names that method, and it is
    dropped with the position.
    """
    names = STRUCTURE_NAMES if config.mask_derived == "exclude" else PARAMETER_NAMES
    search_config = SearchConfig(seed=config.seed)
    design = table.matrix(pos, names)
    scorer: _BicScorer | None = None
    graphs: dict[str, EdgeGraph] = {}
    try:
        for method in config.methods:
            data = design
            if method in _BIC_METHODS:
                if scorer is None:
                    scorer = _BicScorer(design)
                data = scorer
            graph = _METHODS[method](table, pos, data, names, search_config, warnings_list)
            if config.mask_derived == "post-hoc":
                graph = _mask_ignored(graph)
            graphs[method] = graph
    except (SearchError, AssociationError) as exc:
        raise PipelineError(f"{method} search for {pos.value}: {exc}", warnings_list) from None
    return graphs


def run_pipeline(config: RunConfig) -> CausalReport:
    """Run the full analysis described by ``config`` and return the report.

    Per-subject ingestion failures and constant columns become warnings;
    cohort-level failures (too few subjects, malformed tables, a method that
    cannot run) and a failed write of the outputs raise PipelineError with
    the warnings gathered so far.
    """
    warnings_list: list[str] = []
    positions = [Position(p) for p in config.positions]

    if config.input_kind == "params":
        try:
            table = load_parameter_table(config.input_path)
        except FormatError as exc:
            raise PipelineError(str(exc)) from None
    else:
        table = _table_from_signals(Path(config.input_path), warnings_list)

    for pos in positions:
        if len(table.subjects(pos)) < 4:
            raise PipelineError(
                f"fewer than 4 subjects for position {pos.value!r}", warnings_list
            )

    paired: list[PairedTestResult] = []
    if {Position.SUPINE, Position.STANDING} <= set(positions):
        if len(table.common_subjects()) >= 8:
            for name in PARAMETER_NAMES:
                supine, standing = table.paired_columns(name)
                try:
                    paired.append(paired_compare(supine, standing, name))
                except FeatureError as exc:
                    warnings_list.append(f"paired test for {name}: {exc}")
        else:
            warnings_list.append("fewer than 8 common subjects; paired tests skipped")

    correlations: dict[str, np.ndarray] = {}
    method_graphs: dict[str, dict[str, EdgeGraph]] = {}
    consensus_graphs: dict[str, ConsensusGraph] = {}

    for pos in positions:
        try:
            correlations[pos.value] = correlation_matrix(table, pos, warnings=warnings_list)
        except AssociationError as exc:
            raise PipelineError(
                f"correlation matrix for {pos.value}: {exc}", warnings_list
            ) from None

        graphs = _method_graphs(table, pos, config, warnings_list)
        method_graphs[pos.value] = graphs
        consensus_graphs[pos.value] = consensus(list(graphs.items()))

    mediation_results: list[tuple[str, MediationFit]] = []
    for pos in positions:
        for x_name, m_name, y_name in config.mediation_paths:
            try:
                fit = mediation_fit(
                    table.column(x_name, pos),
                    table.column(m_name, pos),
                    table.column(y_name, pos),
                    path=(x_name, m_name, y_name),
                )
            except MediationError as exc:
                warnings_list.append(
                    f"mediation {x_name}->{m_name}->{y_name} ({pos.value}): {exc}"
                )
                continue
            mediation_results.append((pos.value, fit))

    report = CausalReport(
        config=config,
        table=table,
        paired_tests=tuple(paired),
        correlations=correlations,
        method_graphs=method_graphs,
        consensus_graphs=consensus_graphs,
        mediation_results=tuple(mediation_results),
        warnings=tuple(warnings_list),
    )
    if config.out_dir is not None:
        try:
            _write_outputs(report, Path(config.out_dir))
        except OSError as exc:
            raise PipelineError(f"cannot write outputs: {exc}", warnings_list) from None
    return report
