"""Tests for BIC scoring and the structure-search method ensemble."""

import contextlib
import dataclasses
import hashlib
import itertools
import math
from collections import deque
from itertools import combinations
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy import linalg as sla
from scipy.interpolate import BSpline
from scipy.linalg.lapack import dpotrf, dsygvd

from cardiocausal import association, structure_search
from cardiocausal.association import (
    AssociationError,
    Direction,
    correlation_matrix,
    generalized_corr_pair,
)
from cardiocausal.graphs import EdgeGraph, GraphError, _complete_pattern, _graph, _masks, cpdag_of
from cardiocausal.pipeline import STRUCTURE_NAMES
from cardiocausal.record_io import PARAMETER_NAMES, ParameterRow, ParameterTable, Position
from cardiocausal.structure_search import (
    SearchConfig,
    SearchError,
    bic_score,
    cam_learn,
    enumerate_best_dag,
    fges,
    gc_graph,
    hill_climb,
    tabu_search,
)
from cardiocausal.structure_search import (
    _ADD,
    _DELETE,
    _EPS_GAIN,
    _LAMBDA_GRID,
    _apply_move,
    _beats,
    _bspline_basis,
    _BicScorer,
    _climb,
    _dag,
    _descendant_masks,
    _gcv_fit,
    _greedy_climb,
    _insert_row,
    _inverse_move,
    _legal_moves,
    _move_parts,
    _node_names,
    _penalized_fits,
    _prune_node,
    _scored_moves,
    _semi_directed_reaches,
    _smoother_eigensystem,
    _SplineTerm,
    _stored_insert_row,
)
from cardiocausal.synthetic import sem_cohort
from test_association import former_loo_predictions, make_table, random_columns
from test_graphs import (
    former_adjacency,
    former_consistent_extension,
    former_cpdag_of,
    vstructs_of,
)
from test_param_features import neumaier_sum


def sem_data(seed: int, n: int = 4000, p: int = 4):
    """Linear-Gaussian SEM with random order and coefficients in 0.6..1.0."""
    rng = np.random.default_rng(seed)
    perm = [int(v) for v in rng.permutation(p)]
    edges = {}
    for i in range(p):
        for j in range(i + 1, p):
            if rng.random() < 0.5:
                edges[(perm[i], perm[j])] = float(
                    rng.uniform(0.6, 1.0) * rng.choice([-1.0, 1.0])
                )
    cols = {}
    for v in perm:
        drive = sum(c * cols[u] for (u, w), c in edges.items() if w == v)
        cols[v] = drive + rng.normal(0.0, 1.0, n)
    data = np.column_stack([cols[i] for i in range(p)])
    return data, frozenset(edges)


def collider_data(n: int = 5000, seed: int = 1):
    # strict ascent from the empty graph recovers the collider when the sample
    # makes the X-Y pair the strongest first addition; seed 1 is such a draw.
    # At seed 0 strict ascent ends in the complete graph X->Y, X->Z, Y->Z,
    # which the plateau walk of hill_climb leaves again
    rng = np.random.default_rng(seed)
    x = rng.normal(0.0, 1.0, n)
    z = rng.normal(0.0, 1.0, n)
    y = x + z + 0.5 * rng.normal(0.0, 1.0, n)
    return np.column_stack([x, y, z])


@contextlib.contextmanager
def _settings(constants):
    """The search constants named in ``constants`` patched to its values."""
    with contextlib.ExitStack() as stack:
        for name, value in constants.items():
            stack.enter_context(mock.patch.object(structure_search, name, value))
        yield


def ols_bic(data: np.ndarray, dag: EdgeGraph) -> float:
    """Per-node least-squares reference route for the Gaussian score."""
    n = data.shape[0]
    index = {v: i for i, v in enumerate(dag.nodes)}
    total = 0.0
    for v in dag.nodes:
        y = data[:, index[v]]
        parents = sorted(index[u] for u in dag.parents(v))
        design = np.column_stack([np.ones(n)] + [data[:, u] for u in parents])
        beta, *_ = np.linalg.lstsq(design, y, rcond=None)
        resid = y - design @ beta
        sigma2 = float(resid @ resid) / n
        k = len(parents) + 2
        total += -0.5 * n * (math.log(2.0 * math.pi * sigma2) + 1.0) - 0.5 * k * math.log(n)
    return total


class TestSearchConfig:
    def test_defaults(self):
        s = structure_search
        assert (s.MAX_PARENTS, s.TABU_LENGTH, s.TABU_MAX_STALLS) == (4, 10, 15)
        assert s.CAM_PRUNE_ALPHA == 0.001
        assert [f.name for f in dataclasses.fields(SearchConfig)] == ["seed"]


def _cho_local(scorer, v, parents):
    """A local score through ``cho_factor`` and ``cho_solve``, as it was
    computed before the direct LAPACK calls."""
    n = scorer.n
    svv = float(scorer.scatter[v, v])
    if parents:
        idx = sorted(parents)
        spp = scorer.scatter[np.ix_(idx, idx)]
        spv = scorer.scatter[idx, v]
        try:
            factor = sla.cho_factor(spp, check_finite=False)
        except sla.LinAlgError:
            return -math.inf
        rss = svv - float(spv @ sla.cho_solve(factor, spv, check_finite=False))
    else:
        rss = svv
    sigma2 = max(rss / n, 1e-12 * (svv / n if svv > 0 else 1.0))
    k = len(parents) + 2
    return -0.5 * n * (math.log(2.0 * math.pi * sigma2) + 1.0) - 0.5 * k * math.log(n)


class TestBicScore:
    def test_matches_least_squares_route(self):
        data, _ = sem_data(0, n=300)
        nodes = ("x0", "x1", "x2", "x3")
        rng = np.random.default_rng(1)
        for _ in range(20):
            edges = set()
            for i, j in combinations(range(4), 2):
                if rng.random() < 0.5:
                    edges.add((nodes[i], nodes[j]))
            dag = EdgeGraph(nodes, frozenset(edges))
            assert bic_score(data, dag) == pytest.approx(ols_bic(data, dag), rel=1e-8)

    def test_empty_graph_beats_single_edges_on_independent_data(self):
        rng = np.random.default_rng(2)
        data = rng.normal(0.0, 1.0, (1000, 2))
        nodes = ("a", "b")
        s_empty = bic_score(data, EdgeGraph(nodes, frozenset()))
        s_ab = bic_score(data, EdgeGraph(nodes, frozenset({("a", "b")})))
        s_ba = bic_score(data, EdgeGraph(nodes, frozenset({("b", "a")})))
        assert s_empty > max(s_ab, s_ba)

    def test_equivalent_chain_dags_score_equal(self):
        rng = np.random.default_rng(3)
        x = rng.normal(0.0, 1.0, 1000)
        y = 0.8 * x + rng.normal(0.0, 1.0, 1000)
        data = np.column_stack([x, y])
        nodes = ("x", "y")
        s1 = bic_score(data, EdgeGraph(nodes, frozenset({("x", "y")})))
        s2 = bic_score(data, EdgeGraph(nodes, frozenset({("y", "x")})))
        assert s1 == pytest.approx(s2, abs=1e-9)

    def test_collinear_parents_score_minus_infinity(self):
        rng = np.random.default_rng(4)
        col = rng.normal(0.0, 1.0, 200)
        data = np.column_stack([col, col.copy(), rng.normal(0.0, 1.0, 200)])
        dag = EdgeGraph(("a", "b", "c"), frozenset({("a", "c"), ("b", "c")}))
        assert bic_score(data, dag) == -math.inf

    def test_local_scores_match_cho_factor_route_bit_for_bit(self):
        rng = np.random.default_rng(22)
        infinite = 0
        for trial in range(60):
            p = 3 + trial % 5
            n = p + 1 + int(rng.integers(0, 60))
            data = rng.normal(0.0, 1.0, (n, p)) @ rng.normal(0.0, 1.0, (p, p))
            kind = trial % 4
            if kind == 1:  # columns on scales far apart
                data *= 10.0 ** rng.uniform(-6.0, 6.0, p)
            elif kind == 2:  # one column nearly a multiple of another
                data[:, 1] = 3.0 * data[:, 0] + 1e-9 * rng.normal(0.0, 1.0, n)
            elif kind == 3:  # exact copies: a singular parent block
                data[:, 1] = data[:, 0]
                data[:, p - 1] = data[:, 0]
            scorer = _BicScorer(data)
            for v in range(p):
                for mask in range(1 << p):
                    if mask >> v & 1 or mask.bit_count() > 4:
                        continue
                    ref = _cho_local(scorer, v, _members(mask))
                    assert scorer.local(v, mask).hex() == ref.hex()
                    infinite += ref == -math.inf
        assert infinite > 0

    @settings(max_examples=200, deadline=None)
    @given(p=st.integers(1, 20), data=st.data())
    def test_each_node_and_parent_mask_has_a_cache_entry_of_its_own(self, p, data):
        # every (node, mask) pair scored on one scorer keeps its own entry
        # and float, so no two pairs share a cache key
        n = p + 1 + data.draw(st.integers(0, 40))
        x = np.random.default_rng(data.draw(st.integers(0, 2**32 - 1))).normal(0.0, 1.0, (n, p))
        scorer = _BicScorer(x)
        pairs = data.draw(
            st.lists(st.tuples(st.integers(0, p - 1), st.integers(0, 2**p - 1)), min_size=1, max_size=40)
        )
        pairs = [(v, mask & ~(1 << v)) for v, mask in pairs]
        for _ in range(2):  # scored, then served from the cache
            for v, mask in pairs:
                assert scorer.local(v, mask).hex() == _cho_local(scorer, v, _members(mask)).hex()
        assert sum(map(len, scorer._cache)) == len(set(pairs))

    def test_illegal_lapack_argument_raises(self):
        scorer = _BicScorer(np.random.default_rng(23).normal(0.0, 1.0, (30, 3)))
        with mock.patch.object(structure_search, "dpotrf", lambda a, **kw: (a, -1)):
            with pytest.raises(ValueError, match="illegal value in argument 1"):
                scorer.local(0, _mask({1, 2}))

    def test_decomposability_of_single_edits(self):
        # the gain of adding u -> v must not depend on edges elsewhere
        data, _ = sem_data(5, n=300)
        nodes = ("x0", "x1", "x2", "x3")
        ctx1 = frozenset({("x2", "x3")})
        ctx2 = frozenset({("x3", "x2"), ("x0", "x3")})
        gains = []
        for ctx in (ctx1, ctx2):
            without = EdgeGraph(nodes, ctx)
            with_edge = EdgeGraph(nodes, ctx | {("x0", "x1")})
            gains.append(bic_score(data, with_edge) - bic_score(data, without))
        assert gains[0] == pytest.approx(gains[1], abs=1e-9)

    def test_equivalence_class_members_score_equal(self):
        rng = np.random.default_rng(6)
        for trial in range(100):
            p = int(rng.integers(2, 6))
            data = rng.normal(0.0, 1.0, (60, p)) @ rng.normal(0.0, 1.0, (p, p))
            nodes = tuple(f"v{i}" for i in range(p))
            order = list(rng.permutation(p))
            edges = set()
            for i, j in combinations(range(p), 2):
                if rng.random() < 0.5:
                    edges.add((nodes[order[i]], nodes[order[j]]))
            dag = EdgeGraph(nodes, frozenset(edges))
            base_score = bic_score(data, dag)
            base_class = cpdag_of(dag)
            # walk the class via covered-edge reversals
            current = dag
            for _ in range(10):
                covered = [
                    (a, b)
                    for a, b in sorted(current.directed)
                    if current.parents(b) - {a} == current.parents(a)
                ]
                if not covered:
                    break
                a, b = covered[int(rng.integers(len(covered)))]
                flipped = (current.directed - {(a, b)}) | {(b, a)}
                current = EdgeGraph(nodes, frozenset(flipped))
                assert cpdag_of(current) == base_class
                assert bic_score(data, current) == pytest.approx(base_score, abs=1e-6)

    def test_input_validation(self):
        with pytest.raises(SearchError):
            bic_score(np.zeros((3, 4)), EdgeGraph(("a", "b", "c", "d"), frozenset()))
        with pytest.raises(SearchError):
            bic_score(np.full((30, 2), np.nan), EdgeGraph(("a", "b"), frozenset()))
        with pytest.raises(SearchError):
            bic_score(np.zeros(10), EdgeGraph(("a",), frozenset()))
        data = np.random.default_rng(0).normal(0.0, 1.0, (30, 2))
        with pytest.raises(SearchError):
            bic_score(data, EdgeGraph(("a", "b", "c"), frozenset()))

    def test_huge_data_scores_in_its_own_units(self):
        # the scorer takes columns above 2**500 in power-of-two units, and
        # the total is the data's own: each variance is 2**1200 times larger
        data = np.random.default_rng(0).normal(0.0, 1.0, (30, 2))
        dag = EdgeGraph(("a", "b"), frozenset({("a", "b")}))
        expected = bic_score(data, dag) - 30 * 2 * 600 * math.log(2.0)
        assert bic_score(data * 2.0**600, dag) == pytest.approx(expected, rel=1e-12)

    def test_total_adds_left_to_right_where_a_compensated_sum_differs(self):
        # the local scores of hc's DAG added in node order, on any Python;
        # the Neumaier-compensated sum that sum() uses for floats from
        # Python 3.12 rounds some of these totals differently
        differ = 0
        for seed in range(4):
            table, _ = sem_cohort(100, seed=seed)
            for pos, names in itertools.product(Position, (STRUCTURE_NAMES, PARAMETER_NAMES)):
                scorer = _BicScorer(table.matrix(pos, names))
                parents = _masks(hill_climb(scorer, names=names))[0]
                local = [scorer.local(v, parents[v]) for v in range(scorer.p)]
                left = 0.0
                for score in local:
                    left += score
                assert scorer.total(parents) == left
                differ += neumaier_sum(local) != left
        assert differ > 0


class TestNodeNames:
    @pytest.mark.parametrize(
        "search",
        [hill_climb, tabu_search, fges, cam_learn, enumerate_best_dag],
        ids=["hc", "tabu", "fges", "cam", "enumerate"],
    )
    def test_duplicate_names_rejected_before_any_scoring(self, search):
        data = np.random.default_rng(24).normal(0.0, 1.0, (60, 3))
        with (
            mock.patch.object(_BicScorer, "local", side_effect=AssertionError("scored")),
            mock.patch.object(structure_search, "_gcv_fit", side_effect=AssertionError("fitted")),
            pytest.raises(SearchError, match="duplicate node names"),
        ):
            search(data, names=("a", "a", "b"))


class TestDagPreconditions:
    # a directed cycle (the shape gc can return) and a mixed graph (fges's)
    NOT_DAGS = [
        EdgeGraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")})),
        EdgeGraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "a")})),
        EdgeGraph(("a", "b", "c"), frozenset({("a", "b")}), frozenset({frozenset(("b", "c"))})),
        EdgeGraph(("a", "b", "c"), frozenset(), frozenset({frozenset(("a", "c"))})),
    ]

    @pytest.mark.parametrize("graph", NOT_DAGS, ids=["cycle", "two-cycle", "mixed", "undirected"])
    def test_non_dags_rejected(self, graph):
        data = np.random.default_rng(21).normal(0.0, 1.0, (60, 3))
        with pytest.raises((SearchError, GraphError)):
            bic_score(data, graph)
        with pytest.raises(GraphError):
            cpdag_of(graph)


def _mask(nodes) -> int:
    """The bitmask of a set of column indices."""
    return sum(1 << v for v in nodes)


def _members(mask: int) -> list[int]:
    """The column indices of a bitmask, ascending."""
    return [v for v in range(mask.bit_length()) if mask >> v & 1]


def _edge_masks(p, edges):
    """Children and parents of each of the ``p`` nodes of an edge set, as
    bitmasks."""
    children, parents = [0] * p, [0] * p
    for u, v in edges:
        children[u] |= 1 << v
        parents[v] |= 1 << u
    return children, parents


def _edges(parents):
    """The edges (u, v) of a DAG given by its parent masks."""
    return frozenset((u, v) for v, pv in enumerate(parents) for u in _members(pv))


def _former_state_from_edges(p, edges):
    """Children and parents of each of the ``p`` nodes as sets, as the
    searches held them before bitmasks."""
    edges = tuple(edges)
    return (
        former_adjacency(range(p), edges, one_way=True),
        former_adjacency(range(p), [(v, u) for u, v in edges], one_way=True),
    )


_OPS = ("add", "delete", "reverse")


def _named(moves, p):
    """Moves on ``p`` nodes as ("add" | "delete" | "reverse", tail, head)."""
    return [(_OPS[op], u, v) for op, u, v in (_move_parts(move, p) for move in moves)]


def _move_delta(scorer, parents, move):
    """A move's delta from its own local-score lookups, as the move loop
    scored each move before it kept the nodes' current scores; ``parents``
    holds bitmasks."""
    op, u, v = _move_parts(move, scorer.p)
    pv = parents[v]
    if op == _ADD:
        return scorer.local(v, pv | 1 << u) - scorer.local(v, pv)
    if op == _DELETE:
        return scorer.local(v, pv & ~(1 << u)) - scorer.local(v, pv)
    pu = parents[u]
    return (
        scorer.local(v, pv & ~(1 << u))
        + scorer.local(u, pu | 1 << v)
        - scorer.local(v, pv)
        - scorer.local(u, pu)
    )


def _descendants(children):
    """Nodes reachable from each node of a DAG by one or more edges, as sets:
    the former reachability routine, kept as the reference for the bitmasks."""
    reach = {}

    def visit(v):
        if v not in reach:
            reach[v] = set()
            for c in children[v]:
                reach[v] |= {c} | visit(c)
        return reach[v]

    for v in children:
        visit(v)
    return reach


def _acyclic_single_edge_edits(p, edges, max_parents):
    """Every single-edge edit of the DAG ``edges`` on ``p`` nodes that leaves
    a DAG with at most ``max_parents`` parents at the edited head, by brute
    force: adds, then deletes, then reversals, each by tail and head."""
    edits = []
    for op in ("add", "delete", "reverse"):
        for u in range(p):
            for v in range(p):
                if u == v:
                    continue
                if op == "add" and (u, v) not in edges and (v, u) not in edges:
                    edited, head = edges | {(u, v)}, v
                elif op == "delete" and (u, v) in edges:
                    edited, head = edges - {(u, v)}, None
                elif op == "reverse" and (u, v) in edges:
                    edited, head = (edges - {(u, v)}) | {(v, u)}, u
                else:
                    continue
                if head is not None and sum(b == head for _, b in edited) > max_parents:
                    continue
                try:
                    EdgeGraph(tuple(range(p)), frozenset(edited)).require_dag()
                except GraphError:
                    continue
                edits.append((op, u, v))
    return edits


class TestHillClimb:
    def test_collider_recovered_exactly(self):
        dag = hill_climb(collider_data(), names=("X", "Y", "Z"))
        assert dag.directed == frozenset({("X", "Y"), ("Z", "Y")})

    def test_independent_columns_give_empty_graph(self):
        rng = np.random.default_rng(7)
        dag = hill_climb(rng.normal(0.0, 1.0, (1000, 4)))
        assert dag.directed == frozenset()

    def test_chain_reaches_oracle_score(self):
        rng = np.random.default_rng(8)
        x = rng.normal(0.0, 1.0, 2000)
        y = 0.8 * x + rng.normal(0.0, 1.0, 2000)
        data = np.column_stack([x, y])
        dag = hill_climb(data)
        assert dag.directed in (frozenset({("x0", "x1")}), frozenset({("x1", "x0")}))
        oracle = enumerate_best_dag(data)
        assert bic_score(data, dag) == pytest.approx(oracle.best_score, abs=1e-9)

    def test_plateau_walk_reaches_optimum_where_strict_ascent_stalled(self):
        # strict ascent alone ended about 4.08 score units below the
        # enumeration optimum on this instance
        data, _ = sem_data(2)
        oracle = enumerate_best_dag(data)
        assert bic_score(data, hill_climb(data)) == pytest.approx(oracle.best_score, abs=1e-9)

    def test_start_at_optimum_stays(self):
        data = collider_data()
        oracle = enumerate_best_dag(data)
        nodes = oracle.best.nodes
        start = tuple(_masks(oracle.best)[0])
        parents, _ = _climb(_BicScorer(data), start)
        assert _dag(nodes, parents) == oracle.best

    def test_legal_moves_are_the_acyclic_single_edge_edits(self):
        rng = np.random.default_rng(14)
        for _ in range(200):
            p = int(rng.integers(2, 7))
            max_parents = int(rng.integers(1, 4))
            order = rng.permutation(p)
            edges = {
                (int(order[i]), int(order[j]))
                for i, j in combinations(range(p), 2)
                if rng.random() < 0.4
            }
            children, parents = _edge_masks(p, edges)
            with _settings({"MAX_PARENTS": max_parents}):
                assert _named(_legal_moves(children, parents), p) == _acyclic_single_edge_edits(
                    p, edges, max_parents
                )

    @settings(max_examples=300, deadline=None)
    @given(
        p=st.integers(2, 16),
        max_parents=st.integers(1, 4),
        data=st.data(),
    )
    def test_legal_moves_and_descendant_masks_on_random_dags(self, p, max_parents, data):
        order = data.draw(st.permutations(range(p)))
        pairs = [(order[i], order[j]) for i, j in combinations(range(p), 2)]
        kept = data.draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        edges = {e for e, k in zip(pairs, kept) if k}
        children, parents = _edge_masks(p, edges)
        with _settings({"MAX_PARENTS": max_parents}):
            assert _named(_legal_moves(children, parents), p) == _acyclic_single_edge_edits(
                p, edges, max_parents
            )
        descendants = _descendants(_former_state_from_edges(p, edges)[0])
        masks = _descendant_masks(children)
        assert [set(_members(masks[v])) for v in range(p)] == [descendants[v] for v in range(p)]
        # handed the parents, the same routine gives the ancestors
        masks = _descendant_masks(parents)
        assert [set(_members(masks[v])) for v in range(p)] == [
            {u for u in range(p) if v in descendants[u]} for v in range(p)
        ]

    def test_max_parents_respected(self):
        rng = np.random.default_rng(9)
        cause = rng.normal(0.0, 1.0, (800, 4))
        target = cause.sum(axis=1) + 0.3 * rng.normal(0.0, 1.0, 800)
        data = np.column_stack([cause, target])
        with mock.patch.object(structure_search, "MAX_PARENTS", 2):
            dag = hill_climb(data)
        assert all(len(dag.parents(v)) <= 2 for v in dag.nodes)


class TestTabuSearch:
    def test_never_scores_below_hill_climb(self):
        # seed 7 is a draw where a tabu ascent of its own ends below hill_climb
        for seed in range(8):
            data, _ = sem_data(seed, n=1500)
            s_hc = bic_score(data, hill_climb(data))
            s_tb = bic_score(data, tabu_search(data))
            assert s_tb >= s_hc - 1e-9

    def test_collider_agrees_with_hill_climb(self):
        data = collider_data()
        assert tabu_search(data).directed == hill_climb(data).directed

    def test_escapes_local_optimum_where_hill_climb_stalls(self):
        # frozen instance: on this 4-node SEM hill climbing, plateau walk
        # included, ends about 2.85 score units below the enumeration
        # optimum, while the stall moves let tabu search reach it.  The
        # instance was sem_data(2) until hill_climb learned to cross
        # score-neutral plateaus; it reaches the optimum there now
        data, _ = sem_data(8)
        oracle = enumerate_best_dag(data)
        s_hc = bic_score(data, hill_climb(data))
        s_tb = bic_score(data, tabu_search(data))
        assert s_hc < oracle.best_score - 1.0
        assert s_tb == pytest.approx(oracle.best_score, abs=1e-9)

    def test_escapes_complete_graph_trap_on_collider(self):
        # at this draw strict ascent from the empty graph orients the first
        # edge out of the collider node and climbs into the fully connected
        # trap below; both searches back out of it through score-neutral
        # reversals of covered edges
        data = collider_data(seed=0)
        names = ("X", "Y", "Z")
        trap_edges = frozenset({("X", "Y"), ("X", "Z"), ("Y", "Z")})
        trap = EdgeGraph(names, trap_edges)
        s_trap = bic_score(data, trap)
        for a, b in trap_edges:
            deleted = trap_edges - {(a, b)}
            assert bic_score(data, EdgeGraph(names, deleted)) <= s_trap + 1e-9
            try:
                reversed_ = EdgeGraph(names, deleted | {(b, a)}).require_dag()
            except GraphError:
                continue
            assert bic_score(data, reversed_) <= s_trap + 1e-9
        collider = frozenset({("X", "Y"), ("Z", "Y")})
        oracle = enumerate_best_dag(data, names=names)
        # hill_climb's and tabu_search's climbs, started from the trap
        scorer = _BicScorer(data)
        start = tuple(_masks(trap)[0])
        climbed, _ = _climb(scorer, start)
        escaped, _ = _greedy_climb(scorer, climbed, structure_search.TABU_MAX_STALLS)
        for parents in (climbed, escaped):
            found = _dag(names, parents)
            assert found.directed == collider
            assert bic_score(data, found) == pytest.approx(oracle.best_score, abs=1e-9)


def rank4_design():
    """Six columns of rank 4, the last draw of a loop over random upper
    triangular mixings."""
    rng = np.random.default_rng(0)
    for p in (3, 4, 5, 6):
        m = np.triu(rng.normal(size=(p, p)) * (rng.random((p, p)) < 0.5))
        data = rng.normal(size=(200, p)) @ m
    return data


def collinear_hr_table():
    """``sem_cohort(100, seed=0)`` with every row's HR set to RMSSD + RR."""
    table, _ = sem_cohort(100, seed=0)
    rows = []
    for row in table.rows:
        hr = row.params["RMSSD"] + row.params["RR"]
        rows.append(dataclasses.replace(row, params={**row.params, "HR": hr}))
    return ParameterTable(rows)


class TestRankDeficientDesigns:
    """Where columns are exact linear combinations of others, covered-edge
    reversals need not tie, and the plateau walk must still end.  fges must
    still give the former rebuild's graph, whose consistent extension always
    exists."""

    DESIGNS = {
        "rank-4": rank4_design,
        "supine-hr-sum": lambda: collinear_hr_table().matrix(Position.SUPINE, STRUCTURE_NAMES),
    }

    @pytest.mark.parametrize("design", list(DESIGNS))
    def test_searches_end_at_or_above_the_strict_ascent(self, design):
        data = self.DESIGNS[design]()
        calls = 0

        def counted(*args):
            nonlocal calls
            calls += 1
            if calls > 1_000:
                raise AssertionError("more than 1,000 strict climbs")
            return _greedy_climb(*args)

        with mock.patch.object(structure_search, "_greedy_climb", counted):
            hc = hill_climb(data)
            tabu = tabu_search(data)
        strict, _ = _greedy_climb(_BicScorer(data), (0,) * data.shape[1])
        assert bic_score(data, hc) >= bic_score(data, _dag(hc.nodes, strict))
        assert bic_score(data, tabu) >= bic_score(data, hc) - 1e-9

    @pytest.mark.parametrize("names", [STRUCTURE_NAMES, PARAMETER_NAMES], ids=["8", "10"])
    @pytest.mark.parametrize("position", list(Position), ids=lambda position: position.value)
    def test_fges_gives_the_former_rebuild(self, position, names):
        _assert_fges_is_the_former_rebuild(collinear_hr_table().matrix(position, names))

    def test_fges_gives_the_former_rebuild_on_rank_4(self):
        _assert_fges_is_the_former_rebuild(rank4_design())


def _reference_strict_climb(scorer, parents0):
    """Strict best-improvement ascent with a move loop of its own, as it was
    before tabu search shared the loop: (parent masks, accumulated score)."""
    children, parents = _edge_masks(scorer.p, _edges(parents0))
    score = scorer.total(parents)
    while True:
        best_move, best_delta = None, _EPS_GAIN
        for move in _legal_moves(children, parents):
            delta = _move_delta(scorer, parents, move)
            if _beats(delta, best_delta):
                best_move, best_delta = move, delta
        if best_move is None:
            return tuple(parents), score
        _apply_move(children, parents, best_move)
        score += best_delta


def _reference_tabu_walk(scorer, best, best_score):
    """Tabu search's former loop from the hill-climb result: one scan for an
    improving move and, on a stall step, a second scan for the stall move."""
    children, parents = _edge_masks(scorer.p, _edges(best))
    score = best_score
    tabu = deque(maxlen=structure_search.TABU_LENGTH)
    stalls = 0
    while True:
        moves = _legal_moves(children, parents)
        chosen, chosen_delta = None, _EPS_GAIN
        for move in moves:
            delta = _move_delta(scorer, parents, move)
            if not _beats(delta, chosen_delta):
                continue
            if move in tabu and score + delta <= best_score + _EPS_GAIN:
                continue
            chosen, chosen_delta = move, delta
        if chosen is None:
            if stalls >= structure_search.TABU_MAX_STALLS:
                break
            worst = -math.inf
            for move in moves:
                if move in tabu:
                    continue
                delta = _move_delta(scorer, parents, move)
                if chosen is None or _beats(delta, worst):
                    chosen, worst = move, delta
            if chosen is None:
                break
            chosen_delta = worst
            stalls += 1
        _apply_move(children, parents, chosen)
        score += chosen_delta
        tabu.append(_inverse_move(chosen, scorer.p))
        if score > best_score + _EPS_GAIN:
            best, best_score = tuple(parents), score
            stalls = 0
    return best, best_score


_MOVE_LOOP_SETTINGS = [{}, {"MAX_PARENTS": 2, "TABU_LENGTH": 3, "TABU_MAX_STALLS": 30}]

# moves the searches may apply to one design here, where they apply at most 121
_MOVE_CAP = 10_000


@contextlib.contextmanager
def _capped_moves():
    """The searches' moves counted, failing past ``_MOVE_CAP``: a stale
    improving delta in the move table would otherwise loop forever."""
    moves = 0

    def counted(*args):
        nonlocal moves
        moves += 1
        if moves > _MOVE_CAP:
            raise AssertionError(f"more than {_MOVE_CAP:,} moves on one design")
        _apply_move(*args)

    with mock.patch.object(structure_search, "_apply_move", counted):
        yield


class TestMoveLoopAgainstReferences:
    """The one move loop gives hill-climb's and tabu search's former results."""

    @staticmethod
    def check(data):
        # a scorer keeps its climb, so each climb gets a scorer of its own
        empty = (0,) * data.shape[1]
        with mock.patch.object(structure_search, "_greedy_climb", _reference_strict_climb):
            ref_hc = _climb(_BicScorer(data), empty)
        scorer = _BicScorer(data)
        hc = _climb(scorer, empty)
        assert hc[0] == ref_hc[0]
        assert hc[1] == pytest.approx(ref_hc[1], abs=1e-9)
        ref_tabu = _reference_tabu_walk(scorer, *ref_hc)
        tabu = _greedy_climb(scorer, hc[0], structure_search.TABU_MAX_STALLS)
        assert tabu[0] == ref_tabu[0]
        assert tabu[1] == pytest.approx(ref_tabu[1], abs=1e-9)
        return _edges(hc[0]), _edges(tabu[0])

    @pytest.mark.parametrize("constants", _MOVE_LOOP_SETTINGS, ids=["default", "short-tabu"])
    def test_random_linear_sems(self, constants):
        with _settings(constants):
            for seed in range(200):
                data, _ = sem_data(seed, n=300, p=3 + seed % 5)
                with _capped_moves():
                    self.check(data)

    @pytest.mark.parametrize("constants", _MOVE_LOOP_SETTINGS, ids=["default", "short-tabu"])
    @pytest.mark.parametrize("names", [STRUCTURE_NAMES, PARAMETER_NAMES], ids=["8", "10"])
    def test_sem_cohort_designs(self, constants, names):
        with _settings(constants):
            for seed in range(4):
                table, _ = sem_cohort(100, seed=seed)
                for position in Position:
                    data = table.matrix(position, names)
                    with _capped_moves():
                        hc, tabu = self.check(data)
                        # the public searches are these two loops
                        assert hill_climb(data).directed == {(f"x{u}", f"x{v}") for u, v in hc}
                        assert tabu_search(data).directed == {(f"x{u}", f"x{v}") for u, v in tabu}


def _same_float(a, b):
    return a == b or (math.isnan(a) and math.isnan(b))


def _former_beats(delta, incumbent):
    if math.isclose(delta, incumbent, rel_tol=1e-9, abs_tol=1e-9):
        return False
    return delta > incumbent


@settings(max_examples=500, deadline=None)
@given(
    delta=st.floats(allow_nan=True, allow_infinity=True),
    incumbent=st.floats(allow_nan=True, allow_infinity=True),
    nudge=st.integers(-3, 3),
)
def test_beats_tests_the_order_first_with_the_same_result(delta, incumbent, nudge):
    """``_beats`` compares before its tie test; near ties still lose."""
    for d in (delta, incumbent + nudge * 1e-10 * max(1.0, abs(incumbent))):
        assert _beats(d, incumbent) == _former_beats(d, incumbent)


# the move loop's settings, and fges's MAX_PARENTS 2 and 4
_TABLE_SETTINGS = [{}, {"MAX_PARENTS": 2}, _MOVE_LOOP_SETTINGS[1]]
_TABLE_SETTING_IDS = ["default", "max-parents-2", "short-tabu"]


class TestMoveDeltaTable:
    """Every delta the move loop takes from its table is the delta of that
    move in the current state."""

    @pytest.mark.parametrize("constants", _TABLE_SETTINGS, ids=_TABLE_SETTING_IDS)
    def test_served_deltas_are_fresh(self, constants):
        served = 0

        def checked(scorer, deltas, children, parents):
            nonlocal served
            stored = list(deltas)
            moves, scored = _scored_moves(scorer, deltas, children, parents)
            for move, delta in zip(moves, scored):
                if stored[move] is not None:
                    served += 1
                assert _same_float(delta, _move_delta(scorer, parents, move)), move
            return moves, scored

        with _settings(constants), mock.patch.object(structure_search, "_scored_moves", checked):
            for seed in range(200):
                data, _ = sem_data(seed, n=300, p=3 + seed % 6)
                scorer = _BicScorer(data)
                hill_climb(scorer)
                tabu_search(scorer)
        assert served > 10_000


class TestSharedScorer:
    """hc, tabu and fges handed one scorer, in any order, give the graphs of
    fresh scorers, factor each local score once, and climb once."""

    SEARCHES = {"hc": hill_climb, "tabu": tabu_search, "fges": fges}

    @pytest.mark.parametrize(
        "order",
        [("hc", "tabu", "fges"), ("tabu", "hc"), ("fges", "tabu", "hc")],
        ids=["hc,tabu,fges", "tabu,hc", "fges,tabu,hc"],
    )
    @pytest.mark.parametrize("names", [STRUCTURE_NAMES, PARAMETER_NAMES], ids=["8", "10"])
    def test_sem_cohort_designs(self, names, order):
        for seed in range(4):
            table, _ = sem_cohort(100, seed=seed)
            for position in Position:
                data = table.matrix(position, names)
                fresh = {method: search(data, names=names) for method, search in self.SEARCHES.items()}
                scorer = _BicScorer(data)
                with (
                    mock.patch.object(structure_search, "dpotrf", wraps=dpotrf) as factor,
                    mock.patch.object(structure_search, "_greedy_climb", wraps=_greedy_climb) as climb,
                ):
                    for i, method in enumerate(order):
                        climb.reset_mock()
                        assert self.SEARCHES[method](scorer, names=names) == fresh[method]
                        if method != "fges" and {"hc", "tabu"} & set(order[:i]):
                            # the climb comes from the scorer: tabu runs only its tabu phase
                            expected = [] if method == "hc" else [(structure_search.TABU_MAX_STALLS,)]
                            assert [c.args[2:] for c in climb.call_args_list] == expected
                # each (node, parents) key is factored on its first use only
                assert factor.call_count == sum(1 for node in scorer._cache for mask in node if mask)


class TestFges:
    def test_semi_directed_paths_follow_arrows(self):
        # 3 -> 0 -> 1 - 2
        step = former_adjacency(range(4), {(3, 0), (0, 1)}, {frozenset((1, 2))}, one_way=True)
        step = [_mask(step[v]) for v in range(4)]
        assert _semi_directed_reaches(3, 2, 0, step)
        assert _semi_directed_reaches(2, 1, 0, step)
        assert not _semi_directed_reaches(2, 0, 0, step)
        assert not _semi_directed_reaches(3, 2, _mask({0}), step)

    def test_chain_gives_undirected_skeleton(self):
        rng = np.random.default_rng(10)
        x = rng.normal(0.0, 1.0, 5000)
        y = 0.8 * x + rng.normal(0.0, 1.0, 5000)
        z = 0.8 * y + rng.normal(0.0, 1.0, 5000)
        cp = fges(np.column_stack([x, y, z]), names=("X", "Y", "Z"))
        assert cp.directed == frozenset()
        assert cp.undirected == frozenset(
            {frozenset(("X", "Y")), frozenset(("Y", "Z"))}
        )

    def test_collider_fully_directed(self):
        cp = fges(collider_data(), names=("X", "Y", "Z"))
        assert cp.directed == frozenset({("X", "Y"), ("Z", "Y")})
        assert cp.undirected == frozenset()

    def test_independent_columns_give_empty_cpdag(self):
        rng = np.random.default_rng(11)
        cp = fges(rng.normal(0.0, 1.0, (1000, 4)))
        assert cp.directed == frozenset()
        assert cp.undirected == frozenset()

    def test_matches_enumeration_class_on_frozen_sems(self):
        for seed in (0, 1, 2, 3, 4):
            data, _ = sem_data(seed)
            oracle = enumerate_best_dag(data)
            assert fges(data) == oracle.best_cpdag


def _former_is_clique(nodes, adj) -> bool:
    return all(b in adj[a] for a, b in itertools.combinations(sorted(nodes), 2))


def _former_semi_directed_reaches(y, x, blocked, step) -> bool:
    """``_semi_directed_reaches`` on node sets, as it was before bitmasks."""
    stack = [y]
    seen = {y}
    while stack:
        v = stack.pop()
        for w in step[v]:
            if w in blocked or w in seen:
                continue
            if w == x:
                return True
            seen.add(w)
            stack.append(w)
    return False


def _former_fges(data, *, names=None):
    """fges as it was: after each operator a Dor-Tarsi consistent extension
    and the former completion of that DAG, with candidates sorted by score
    and the next one tried when a PDAG has no extension.  Returns the graph
    and the number of such retries."""
    scorer = _BicScorer(data)
    p = scorer.p
    names = _node_names(names, p)
    directed, undirected = set(), set()
    retries = 0

    def neighbours():
        parents = _former_state_from_edges(p, directed)[1]
        return (
            former_adjacency(range(p), directed, undirected),
            former_adjacency(range(p), (), undirected),
            parents,
        )

    def forward_candidates():
        adj, und, parents = neighbours()
        step = former_adjacency(range(p), directed, undirected, one_way=True)
        out, order = [], 0
        for y in range(p):
            for x in range(p):
                if x == y or x in adj[y]:
                    continue
                na = {v for v in und[y] if v in adj[x]}
                t0 = sorted(und[y] - adj[x] - {x})
                for size in range(len(t0) + 1):
                    for t in combinations(t0, size):
                        block = na | set(t)
                        base = frozenset(block | parents[y])
                        new = base | {x}
                        if len(new) > structure_search.MAX_PARENTS or not _former_is_clique(block, adj):
                            continue
                        if _former_semi_directed_reaches(y, x, block, step):
                            continue
                        delta = scorer.local(y, _mask(new)) - scorer.local(y, _mask(base))
                        if delta > _EPS_GAIN:
                            out.append((delta, order, x, y, t))
                        order += 1
        return out

    def backward_candidates():
        adj, und, parents = neighbours()
        out, order = [], 0
        for y in range(p):
            for x in range(p):
                if x == y or ((x, y) not in directed and frozenset((x, y)) not in undirected):
                    continue
                na = {v for v in und[y] if v in adj[x]}
                for size in range(len(na) + 1):
                    for h in combinations(sorted(na), size):
                        rest = na - set(h)
                        if not _former_is_clique(rest, adj):
                            continue
                        base = frozenset((rest | parents[y]) - {x})
                        delta = scorer.local(y, _mask(base)) - scorer.local(y, _mask(base | {x}))
                        if delta > _EPS_GAIN:
                            out.append((delta, order, x, y, h))
                        order += 1
        return out

    def apply_insert(new_dir, new_und, x, y, t):
        new_dir.add((x, y))
        for v in t:
            new_und.discard(frozenset((v, y)))
            new_dir.add((v, y))

    def apply_delete(new_dir, new_und, x, y, h):
        new_dir.discard((x, y))
        new_und.discard(frozenset((x, y)))
        for v in h:
            for u in (y, x):
                if frozenset((u, v)) in new_und:
                    new_und.discard(frozenset((u, v)))
                    new_dir.add((u, v))

    def run_phase(candidate_fn, apply_fn):
        nonlocal directed, undirected, retries
        while True:
            applied = False
            for _, _, x, y, extra in sorted(candidate_fn(), key=lambda c: (-c[0], c[1])):
                new_dir, new_und = set(directed), set(undirected)
                apply_fn(new_dir, new_und, x, y, extra)
                ext = former_consistent_extension(
                    tuple(range(p)), frozenset(new_dir), frozenset(new_und)
                )
                if ext is None:
                    retries += 1
                    continue
                cp = former_cpdag_of(ext)
                directed, undirected = set(cp.directed), set(cp.undirected)
                applied = True
                break
            if not applied:
                return

    run_phase(forward_candidates, apply_insert)
    run_phase(backward_candidates, apply_delete)
    graph = EdgeGraph(
        names,
        frozenset((names[a], names[b]) for a, b in directed),
        frozenset(frozenset(names[v] for v in pair) for pair in undirected),
    )
    return graph, retries


_FGES_SETTINGS = [{}, {"MAX_PARENTS": 2}]


def _assert_fges_is_the_former_rebuild(data):
    """fges gives ``_former_fges``'s graph, and the former rebuild never
    needed its retry."""
    got = fges(data)
    ref, retries = _former_fges(data)
    assert got.directed == ref.directed
    assert got.undirected == ref.undirected
    assert retries == 0


class TestFgesAgainstFormerRebuild:
    """One pattern completion per operator gives the former rebuild's output,
    and the former rebuild never needed its retry.  The former rebuild scores
    every operator again at each step, so this also checks the Insert-operator
    table."""

    @pytest.mark.parametrize("constants", _FGES_SETTINGS, ids=["default", "max-parents-2"])
    def test_random_linear_sems(self, constants):
        with _settings(constants):
            for seed in range(600):
                data, _ = sem_data(seed, n=300, p=3 + seed % 6)
                _assert_fges_is_the_former_rebuild(data)

    def test_exact_ties_go_to_the_first_candidate(self):
        # columns that are permutations or copies of one small-integer column
        # have exactly equal scatter entries, so many operators tie exactly
        for seed in range(200):
            rng = np.random.default_rng(seed)
            base = rng.integers(-3, 4, 24)
            cols = [rng.permutation(base) if rng.random() < 0.5 else base for _ in range(3 + seed % 3)]
            _assert_fges_is_the_former_rebuild(np.column_stack(cols).astype(float))

    @pytest.mark.parametrize("constants", _FGES_SETTINGS, ids=["default", "max-parents-2"])
    @pytest.mark.parametrize("names", [STRUCTURE_NAMES, PARAMETER_NAMES], ids=["8", "10"])
    @pytest.mark.parametrize("n", [30, 60, 100, 1000])
    def test_sem_cohort_designs(self, n, names, constants):
        with _settings(constants):
            for seed in range(10):
                table, _ = sem_cohort(n, seed=seed)
                for position in Position:
                    _assert_fges_is_the_former_rebuild(table.matrix(position, names))


class TestInsertTable:
    """Every row of the Insert table that fges reads equals a fresh build of
    that row in the current pattern."""

    @pytest.mark.parametrize("constants", _TABLE_SETTINGS, ids=_TABLE_SETTING_IDS)
    def test_rows_read_are_fresh(self, constants):
        served = 0

        def checked(rows, scorer, y, adj, und, parents):
            nonlocal served
            before = rows.get(y)
            row = _stored_insert_row(rows, scorer, y, adj, und, parents)
            if before is not None and row is before[1]:
                served += 1
            assert row == _insert_row(scorer, y, adj, und, parents), y
            return row

        with _settings(constants), mock.patch.object(structure_search, "_stored_insert_row", checked):
            for seed in range(200):
                data, _ = sem_data(seed, n=300, p=3 + seed % 6)
                fges(data)
        assert served > 1_000


class TestEnumerateBestDag:
    def test_known_dag_counts(self):
        rng = np.random.default_rng(12)
        # labelled DAGs on p nodes, OEIS A003024
        for p, expected in ((1, 1), (2, 3), (3, 25), (4, 543), (5, 29281)):
            res = enumerate_best_dag(rng.normal(0.0, 1.0, (p + 40, p)))
            assert res.n_dags == expected

    def test_collider_class_found(self):
        res = enumerate_best_dag(collider_data(), names=("X", "Y", "Z"))
        assert res.best_cpdag.directed == frozenset({("X", "Y"), ("Z", "Y")})

    def test_independent_data_prefers_empty_graph(self):
        rng = np.random.default_rng(13)
        res = enumerate_best_dag(rng.normal(0.0, 1.0, (800, 3)))
        assert res.best.directed == frozenset()

    def test_six_nodes_rejected(self):
        rng = np.random.default_rng(14)
        with pytest.raises(SearchError):
            enumerate_best_dag(rng.normal(0.0, 1.0, (50, 6)))


def _brute_force_member(cp: EdgeGraph) -> EdgeGraph | None:
    """A DAG that orients each undirected edge of ``cp`` without a cycle or
    a v-structure beyond those of ``cp``, or None."""
    pairs = cp.sorted_undirected()
    for flips in itertools.product((False, True), repeat=len(pairs)):
        oriented = {(b, a) if flip else (a, b) for (a, b), flip in zip(pairs, flips)}
        dag = EdgeGraph(cp.nodes, cp.directed | oriented)
        try:
            dag.require_dag()
        except GraphError:
            continue
        if all({(p, v), (q, v)} <= cp.directed for p, v, q in vstructs_of(dag)):
            return dag
    return None


class TestSearchInvariances:
    def test_affine_rescaling_leaves_structures_identical(self):
        rng = np.random.default_rng(15)
        a = rng.normal(0.0, 1.0, 800)
        b = 0.9 * a + rng.normal(0.0, 1.0, 800)
        c = 0.8 * b + rng.normal(0.0, 1.0, 800)
        data = np.column_stack([a, b, c])
        base = (hill_climb(data), tabu_search(data), fges(data))
        for col, scale, shift in ((0, 0.003, 11.0), (1, 37.5, -4.0), (2, 1e4, 0.0)):
            moved = data.copy()
            moved[:, col] = moved[:, col] * scale + shift
            assert hill_climb(moved) == base[0]
            assert tabu_search(moved) == base[1]
            assert fges(moved) == base[2]

    def test_reruns_are_byte_identical(self):
        # and a config, whatever its seed, has no effect
        data, _ = sem_data(3, n=800)
        for search in (hill_climb, tabu_search, fges, cam_learn):
            assert search(data).to_dot() == search(data, SearchConfig(seed=7)).to_dot()

    def test_outputs_are_valid_graphs(self):
        for seed in range(8):
            data, _ = sem_data(seed, n=600, p=4 + seed % 3)
            hill_climb(data).require_dag()  # GraphError on a cycle or an undirected edge
            cp = fges(data)
            # a completed pattern: a fixpoint of the completion, and the
            # class of a member DAG found by brute force
            assert _graph(cp.nodes, *_complete_pattern(*_masks(cp))) == cp
            member = _brute_force_member(cp)
            assert member is not None
            assert cpdag_of(member) == cp


class TestCamLearn:
    def test_nonlinear_pair_directed_correctly(self):
        rng = np.random.default_rng(0)
        x = rng.normal(0.0, 1.0, 500)
        y = np.sin(2.0 * x) + 0.2 * rng.normal(0.0, 1.0, 500)
        dag = cam_learn(np.column_stack([x, y]), names=("X", "Y"))
        assert dag.directed == frozenset({("X", "Y")})

    def test_independent_columns_pruned_to_empty(self):
        rng = np.random.default_rng(1)
        dag = cam_learn(rng.normal(0.0, 1.0, (300, 3)))
        assert dag.directed == frozenset()

    def test_linear_pair_keeps_one_edge(self):
        rng = np.random.default_rng(2)
        x = rng.normal(0.0, 1.0, 400)
        y = 2.0 * x + rng.normal(0.0, 1.0, 400)
        dag = cam_learn(np.column_stack([x, y]), names=("X", "Y"))
        assert dag.directed in (frozenset({("X", "Y")}), frozenset({("Y", "X")}))

    def test_preconditions(self):
        rng = np.random.default_rng(3)
        with pytest.raises(SearchError):
            cam_learn(rng.normal(0.0, 1.0, (40, 2)))
        bad = rng.normal(0.0, 1.0, (100, 2))
        bad[:, 0] = 5.0
        with pytest.raises(SearchError):
            cam_learn(bad)
        x = rng.normal(0.0, 1.0, (100, 3))
        for related in (x[:, 0], 2.0 * x[:, 0] + 1.0):
            with pytest.raises(SearchError, match="collinear columns"):
                cam_learn(np.column_stack([x, related]))
        for value in (np.nan, np.inf, -np.inf):
            bad = rng.normal(0.0, 1.0, (60, 4))
            bad[7, 2] = value
            with pytest.raises(SearchError, match="non-finite data"):
                cam_learn(bad)

    def test_keeps_a_term_the_f_test_finds_strong(self):
        # the cExpV term for cInsV tests at p = 1e-20 here, far below
        # cam_prune_alpha, at the full fit's lambda of 1e6
        table, _ = sem_cohort(100, seed=1)
        x = table.matrix(Position.STANDING, STRUCTURE_NAMES)
        dag = cam_learn(x, names=STRUCTURE_NAMES)
        assert dag.directed & {("cExpV", "cInsV"), ("cInsV", "cExpV")}


def _standardized(seed: int, position: Position) -> np.ndarray:
    table, _ = sem_cohort(100, seed=seed)
    x = table.matrix(position, STRUCTURE_NAMES)
    return (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)


def _dense_smoother(z, v, parents):
    """Smoother inputs of column v on the spline terms of parents, from one
    stacked design, and the dense solve of the fit at a penalty."""
    y = z[:, v]
    terms = [_SplineTerm(z[:, u]) for u in parents]
    design = np.hstack([np.ones((y.size, 1))] + [t.basis for t in terms])
    d = design.shape[1]
    omega = np.zeros((d, d))
    col = 1
    for t in terms:
        width = t.basis.shape[1]
        omega[col : col + width, col : col + width] = t.penalty
        col += width
    assert col == d
    xtx = design.T @ design

    def dense_fit(lam):
        a = xtx + lam * omega
        resid = y - design @ np.linalg.solve(a, design.T @ y)
        return float(resid @ resid), float(np.trace(np.linalg.solve(a, xtx)))

    return (xtx, design.T @ y, float(y @ y), omega), dense_fit


def _scipy_second_derivatives(knots, points):
    """Second derivative of each cubic B-spline at ``points``, one scipy
    ``BSpline`` per basis function, as cam's curvature penalty first did."""
    nb = knots.size - 4
    return np.column_stack(
        [BSpline(knots, np.eye(nb)[j], 3)(points, nu=2) for j in range(nb)]
    )


def _assert_basis_matches_scipy(x):
    knots = _SplineTerm(x).knots
    assert np.array_equal(_bspline_basis(knots, x), BSpline.design_matrix(x, knots, 3).toarray())
    # the data, every knot, and the penalty's Gauss points of each span
    spans = np.unique(knots)
    half, mid = 0.5 * np.diff(spans), 0.5 * (spans[:-1] + spans[1:])
    gauss = (mid[:, None] + half[:, None] * np.array([-1.0, 1.0]) / math.sqrt(3.0)).ravel()
    points = np.concatenate([x, spans, gauss])
    assert np.array_equal(
        _bspline_basis(knots, points, nu=2), _scipy_second_derivatives(knots, points)
    )


class TestSplineBasis:
    @pytest.mark.parametrize("n", [100, 1000])
    def test_matches_scipy_on_standardized_cohort_columns(self, n):
        for seed in range(8):
            table, _ = sem_cohort(n, seed=seed)
            for position in Position:
                x = table.matrix(position)
                for z in ((x - x.mean(axis=0)) / x.std(axis=0, ddof=1)).T:
                    _assert_basis_matches_scipy(z)

    @settings(max_examples=100, deadline=None)
    @given(
        st.lists(st.integers(min_value=-400, max_value=400), min_size=8, max_size=80).filter(
            lambda v: max(v) > min(v)
        )
    )
    def test_matches_scipy_on_any_sample(self, values):
        # on a 0.01 grid, as standardized data: knots 1e-234 apart would
        # overflow both implementations.  Ties exercise the linspace fallback.
        _assert_basis_matches_scipy(np.asarray(values) / 100.0)

    def test_rows_are_a_partition_of_unity(self):
        x = _standardized(2, Position.SUPINE)[:, 3]
        np.testing.assert_allclose(_bspline_basis(_SplineTerm(x).knots, x).sum(axis=1), 1.0)


def _eigen_inputs(inputs):
    """Former smoother inputs (xtx, xty, yty, omega) as (eigensystem, xty, yty)."""
    xtx, xty, yty, omega = inputs
    return _smoother_eigensystem(xtx, omega), xty, yty


class TestGcvSmoother:
    @pytest.mark.parametrize("k", [1, 2, 4, 7])
    def test_matches_dense_solves_at_every_penalty(self, k):
        # k = 7 is the largest parent set of the 8-column design
        z = _standardized(0, Position.SUPINE)
        n = z.shape[0]
        inputs, dense_fit = _dense_smoother(z, 0, range(1, k + 1))
        dense = []
        for lam in _LAMBDA_GRID:
            rss, edf = dense_fit(lam)
            dense.append((n * rss / (n - edf) ** 2, rss, edf, lam))
        _, rss, edf, lam = min(dense)
        fit = _gcv_fit(*_eigen_inputs(inputs), n)
        assert fit.lam == lam
        assert fit.rss == pytest.approx(rss, rel=1e-8)
        # the centering constraint is absorbed, so the penalized system has no
        # null vector: its condition number is at most 4e7 here (k=1,
        # lambda=1e6), and dense solves are accurate well below 1e-8
        assert fit.edf == pytest.approx(edf, rel=1e-8)

    def test_pruning_f_tests_match_dense_solves(self):
        # each reduced fit is taken at the full fit's penalty
        z = _standardized(1, Position.STANDING)
        n = z.shape[0]
        v = STRUCTURE_NAMES.index("cInsV")
        preds = [u for u in range(z.shape[1]) if u != v]
        inputs, dense_fit = _dense_smoother(z, v, preds)
        lam = _gcv_fit(*_eigen_inputs(inputs), n).lam
        full_rss, full_edf = dense_fit(lam)
        expected = []
        for u in preds:
            rss, edf = _dense_smoother(z, v, [w for w in preds if w != u])[1](lam)
            df1, df2 = full_edf - edf, n - full_edf
            expected.append((df1, df2, (rss - full_rss) / df1 / (full_rss / df2)))

        def system(v, parents):
            return _eigen_inputs(_dense_smoother(z, v, parents)[0])

        with (
            _settings({"CAM_PRUNE_ALPHA": 0.001}),
            mock.patch.object(structure_search, "fdtrc", wraps=structure_search.fdtrc) as sf,
        ):
            _prune_node(system, v, preds, n)
        assert [call.args for call in sf.call_args_list] == [
            pytest.approx(e, rel=1e-6) for e in expected
        ]

    def test_one_eigendecomposition_per_sweep(self):
        inputs, _ = _dense_smoother(_standardized(0, Position.SUPINE), 0, [1, 2])
        with mock.patch.object(structure_search, "dsygvd", wraps=structure_search.dsygvd) as eig:
            _gcv_fit(*_eigen_inputs(inputs), 100)
        assert eig.call_count == 1

    @pytest.mark.parametrize("k", [0, 1, 4, 9])
    def test_eigensystem_is_scipys_eigh(self, k):
        # the same LAPACK routine and arguments, so the same bits
        x = sem_cohort(100, seed=2)[0].matrix(Position.SUPINE)
        z = (x - x.mean(axis=0)) / x.std(axis=0, ddof=1)
        xtx, _, _, omega = _dense_smoother(z, 0, range(1, k + 1))[0]
        mu, v = _smoother_eigensystem(xtx, omega)
        want_mu, want_v = sla.eigh(xtx, xtx + omega)
        assert np.array_equal(mu, want_mu) and np.array_equal(v, want_v)

    def test_no_valid_penalty_is_an_error(self):
        # a Gram matrix that is not positive definite at any penalty
        with pytest.raises(SearchError, match="no valid penalty value"):
            _smoother_eigensystem(-np.eye(3), np.zeros((3, 3)))
        # every penalty leaves as many degrees of freedom as rows
        eigensystem = _smoother_eigensystem(np.eye(3), np.zeros((3, 3)))
        with pytest.raises(SearchError, match="no valid penalty value"):
            _gcv_fit(eigensystem, np.zeros(3), 0.0, 3)


# SHA-256 of cam's sorted edges on both positions ("supine a->b", one per
# line, supine first) of each sem_cohort design that tests/golden.json does
# not cover, keyed "n-seed-columns"; taken with one BLAS thread, which
# conftest.py sets
_CAM_EDGE_DIGESTS = {
    "50-0-8": "a1ce8fe88641dc538428baf97e5112f93a2c4e044071af2328054d8d84b7a9f5",
    "50-0-10": "33b38b4efa931258b1f619b2fdb9097b47e05009aa9abc1aabec8966bd8b1ac3",
    "50-1-8": "3f57d333385668b316b83159f38f2ed5c7693c88a18b8f7ac46274033817c4f1",
    "50-1-10": "6f185af7ceb4e6bef2793389fb2e1573caa50cd470293e3bab3d2791234b6e82",
    "50-2-8": "77351470a8a818a160d43778e972ae931ad2cde9fca94eeef5148695cd4554fb",
    "50-2-10": "60142a94cc4de97587127c409ef2c9dcf27d60e8ac0c134e71b4c7311e9731bf",
    "50-3-8": "3ff8fbd758429f1c67b95a4c85a1246ddc815082bd46ad08fe6aaad90a709ba7",
    "50-3-10": "30d5e5e711f4a575925c2b54706f13ca27bd184c2333b44e8ab5b9059316a15a",
    "1000-1-8": "077825aa93bf70d63876c851e3c9e4da44ee4ce5334f509aef5c202efa7f0e4d",
    "1000-1-10": "da9becc4216dacd2d3e68182854dbd9471defe5a9b24aadbb881c80ac147a0e8",
    "1000-2-8": "c371d0427429ab71671ac53fea73da900d82df674b0b08b1bd292d17bcea8b30",
    "1000-2-10": "83f96739670fdf5285089d4df74c1eeb6e4acd00a00de5aebde1eafc10326e7c",
    "1000-3-8": "543504e8de57e4ae9d5b599714e5b06c6483f6c49d7950375da3f1d59b72b65e",
    "1000-3-10": "2e7d5bc7b8daabbfc69f33186617c2112d6f4545cf76533cd8254da267eb23cc",
}


class TestCamEdgeDigests:
    @pytest.mark.parametrize("design", _CAM_EDGE_DIGESTS)
    def test_edges_keep_their_digest(self, design):
        # an intended change records the new digest, and why, in CHANGES.md
        n, seed, width = map(int, design.split("-"))
        names = STRUCTURE_NAMES if width == 8 else PARAMETER_NAMES
        table, _ = sem_cohort(n, seed=seed)
        edges = "\n".join(
            f"{position.value} {a}->{b}"
            for position in Position
            for a, b in sorted(cam_learn(table.matrix(position, names), names=names).directed)
        )
        digest = hashlib.sha256(edges.encode()).hexdigest()
        assert digest == _CAM_EDGE_DIGESTS[design], f"new digest {digest} of\n{edges}"


class TestCamAgainstFormerSmoother:
    """cam decomposes each ordered parent list's smoother system once, where
    the former smoother decomposed one for every fit."""

    @pytest.mark.parametrize(
        "names, fits, systems",
        [(STRUCTURE_NAMES, (157, 160), (77, 83)), (PARAMETER_NAMES, (286, 287), (152, 160))],
        ids=["8", "10"],
    )
    def test_one_decomposition_per_ordered_parent_list(self, names, fits, systems):
        table, _ = sem_cohort(100, seed=0)
        for position, want_fits, want_systems in zip(Position, fits, systems):
            with (
                mock.patch.object(structure_search, "dsygvd", wraps=dsygvd) as eig,
                mock.patch.object(
                    structure_search, "_penalized_fits", wraps=_penalized_fits
                ) as sweeps,
            ):
                cam_learn(table.matrix(position, names))
            # each Gram block is one ordered parent list; none is decomposed twice
            blocks = {call.args[0].tobytes() for call in eig.call_args_list}
            assert eig.call_count == len(blocks) == want_systems
            assert sweeps.call_count == want_fits


class TestGcGraph:
    def test_quadratic_pair_detected(self):
        rng = np.random.default_rng(16)
        cols = random_columns(rng, 120)
        x = rng.uniform(-1.0, 1.0, 120)
        cols["HR"] = x + 2.0
        cols["RMSSD"] = x * x + 1.0
        edges = gc_graph(make_table(cols), Position.SUPINE)
        assert ("HR", "RMSSD") in edges

    def test_identical_columns_tie_to_no_edge(self):
        rng = np.random.default_rng(17)
        cols = random_columns(rng, 60)
        cols["RMSSD"] = cols["HR"].copy()
        edges = gc_graph(make_table(cols), Position.SUPINE)
        assert ("HR", "RMSSD") not in edges and ("RMSSD", "HR") not in edges

    def test_independent_table_nearly_empty(self):
        # per-pair false-direction rate is about 0.02 at n = 100, so the
        # 45-pair table yields at most a few edges
        rng = np.random.default_rng(18)
        edges = gc_graph(make_table(random_columns(rng, 100)), Position.SUPINE)
        assert len(edges) <= 4

    def test_degenerate_pair_skipped_with_warning(self, caplog):
        rng = np.random.default_rng(19)
        cols = random_columns(rng, 50)
        cols["BR"] = np.full(50, 42.0)
        with caplog.at_level("WARNING"):
            edges = gc_graph(make_table(cols), Position.SUPINE)
        assert any("skipping pair" in m for m in caplog.messages)
        assert all("BR" not in e for e in edges)

    def test_matches_pairwise_calls_on_sem_cohort(self):
        table, _ = sem_cohort(200, seed=0)
        for position in Position:
            edges, skipped = _pairwise_gc(table, position, PARAMETER_NAMES)
            assert edges and not skipped
            assert gc_graph(table, position) == edges

    @pytest.mark.parametrize("n, constant", [(50, ("RR", "cExpV")), (12, ())])
    def test_skips_the_pairs_that_fail_one_at_a_time(self, caplog, n, constant):
        rng = np.random.default_rng(20)
        cols = random_columns(rng, n)
        for name in constant:
            cols[name] = np.full(n, 0.5)
        table = make_table(cols)
        edges, skipped = _pairwise_gc(table, Position.SUPINE, PARAMETER_NAMES)
        assert len(skipped) == (17 if constant else 45)
        with caplog.at_level("WARNING", logger="cardiocausal.structure_search"):
            assert gc_graph(table, Position.SUPINE) == edges
        assert caplog.messages == skipped

    @pytest.mark.parametrize("position", list(Position))
    def test_warnings_list_takes_the_skips_instead_of_the_log(self, caplog, position):
        rng = np.random.default_rng(20)
        cols = random_columns(rng, 50)
        cols["RR"] = np.full(50, 0.5)
        table = make_table(cols, position)
        edges, skipped = _pairwise_gc(table, position, PARAMETER_NAMES)
        warnings = ["earlier warning"]
        with caplog.at_level("WARNING", logger="cardiocausal.structure_search"):
            assert gc_graph(table, position, warnings=warnings) == edges
        assert caplog.messages == []
        assert warnings == ["earlier warning"] + [
            f"gc search for {position.value}: {line}" for line in skipped
        ]
        assert len(skipped) == 9

    def test_builds_one_kernel_per_column(self):
        table, _ = sem_cohort(100, seed=0)
        with mock.patch.object(
            association, "_loo_predictions", wraps=association._loo_predictions
        ) as kernel:
            gc_graph(table, Position.SUPINE)
        assert kernel.call_count == len(PARAMETER_NAMES)

    @staticmethod
    def check_dense_kernel_graphs(table, names=None):
        """gc's edges and warnings in each position are those of the dense
        kernel."""
        for position in Position:
            warnings = []
            edges = gc_graph(table, position, names, warnings=warnings)
            former_warnings = []
            with mock.patch.object(association, "_loo_predictions", former_loo_predictions):
                assert gc_graph(table, position, names, warnings=former_warnings) == edges
            assert warnings == former_warnings

    @pytest.mark.parametrize("seed", range(3))
    def test_streamed_kernel_gives_the_former_graphs(self, seed):
        # at 1000 subjects each kernel is 21 tiles: 6 diagonal, the last of
        # 40 rows, and 15 off it
        self.check_dense_kernel_graphs(sem_cohort(1000, seed=seed)[0])

    @pytest.mark.parametrize("names", [STRUCTURE_NAMES, PARAMETER_NAMES], ids=["8", "10"])
    def test_tiled_kernel_gives_the_dense_graphs_at_100_subjects(self, names):
        # at 100 subjects each kernel is one diagonal tile
        for seed in range(8):
            self.check_dense_kernel_graphs(sem_cohort(100, seed=seed)[0], names)


def _scaled(table, name, factor):
    """``table`` with column ``name`` multiplied by ``factor``."""
    return ParameterTable(
        rows=tuple(
            ParameterRow(row.subject_id, row.position, {**row.params, name: row.params[name] * factor})
            for row in table.rows
        )
    )


class TestExtremeMagnitudes:
    """A column near 1e180 is taken in power-of-two units, which is exact, so
    its correlations and graphs are those of the plain column; under the
    suite's filterwarnings = error an overflow warning would fail the test."""

    @pytest.mark.parametrize("position", list(Position))
    def test_huge_column_gives_the_plain_results(self, position):
        table, _ = sem_cohort(100, seed=0)
        huge = _scaled(table, "cInsV", 2.0**600)
        assert np.max(huge.column("cInsV", position)) > 1e179
        assert np.array_equal(
            correlation_matrix(huge, position), correlation_matrix(table, position), equal_nan=True
        )
        warnings = []
        assert gc_graph(huge, position, warnings=warnings) == gc_graph(table, position)
        assert warnings == []
        for names in (STRUCTURE_NAMES, PARAMETER_NAMES):
            assert cam_learn(huge.matrix(position, names), names=names) == cam_learn(
                table.matrix(position, names), names=names
            )

    @pytest.mark.parametrize("position", list(Position))
    def test_huge_column_gives_the_plain_bic_graphs(self, position):
        table, _ = sem_cohort(100, seed=0)
        huge = _scaled(table, "cInsV", 2.0**600)
        for names in (STRUCTURE_NAMES, PARAMETER_NAMES):
            for search in (hill_climb, tabu_search, fges):
                assert search(huge.matrix(position, names), names=names) == search(
                    table.matrix(position, names), names=names
                )


def _pairwise_gc(table, position, names):
    """gc_graph as one generalized_corr_pair call per pair: the edges and the
    warning of each pair that fails."""
    edges, skipped = set(), []
    for a, b in combinations(names, 2):
        try:
            pair = generalized_corr_pair(table.column(a, position), table.column(b, position))
        except AssociationError as exc:
            skipped.append(f"skipping pair ({a}, {b}): {exc}")
            continue
        if pair.direction is Direction.X_CAUSES_Y:
            edges.add((a, b))
        elif pair.direction is Direction.Y_CAUSES_X:
            edges.add((b, a))
    return edges, skipped
