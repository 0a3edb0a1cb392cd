"""Tests for BIC scoring and the structure-search method ensemble."""

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
from scipy.linalg.lapack import dpotrf

from cardiocausal import association, structure_search
from cardiocausal.association import AssociationError, Direction, generalized_corr_pair
from cardiocausal.graphs import EdgeGraph, GraphError, _complete_pattern, adjacency, cpdag_of
from cardiocausal.pipeline import STRUCTURE_NAMES
from cardiocausal.record_io import PARAMETER_NAMES, Position
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
    _EPS_GAIN,
    _LAMBDA_GRID,
    _apply_move,
    _beats,
    _bspline_basis,
    _BicScorer,
    _climb,
    _dag,
    _edges_of,
    _gcv_fit,
    _greedy_climb,
    _inverse_move,
    _is_clique,
    _legal_moves,
    _move_delta,
    _node_names,
    _prune_node,
    _semi_directed_reaches,
    _SplineTerm,
    _state_from_edges,
)
from cardiocausal.synthetic import sem_cohort
from test_association import make_table, random_columns
from test_graphs import former_consistent_extension, former_cpdag_of, vstructs_of


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
        c = SearchConfig()
        assert (c.max_parents, c.tabu_length, c.tabu_max_stalls) == (4, 10, 15)
        assert c.cam_prune_alpha == 0.001

    def test_validation(self):
        with pytest.raises(SearchError):
            SearchConfig(max_parents=0)
        for alpha in (0.0, 1.0, 1.5, -0.01, math.nan):
            with pytest.raises(SearchError):
                SearchConfig(cam_prune_alpha=alpha)
        assert SearchConfig(cam_prune_alpha=0.05).cam_prune_alpha == 0.05


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
                others = [u for u in range(p) if u != v]
                for size in range(5):
                    for parents in map(frozenset, combinations(others, size)):
                        ref = _cho_local(scorer, v, parents)
                        assert scorer.local(v, parents).hex() == ref.hex()
                        infinite += ref == -math.inf
        assert infinite > 0

    def test_illegal_lapack_argument_raises(self):
        scorer = _BicScorer(np.random.default_rng(23).normal(0.0, 1.0, (30, 3)))
        with mock.patch.object(structure_search, "dpotrf", lambda a, **kw: (a, -1)):
            with pytest.raises(ValueError, match="illegal value in argument 1"):
                scorer.local(0, frozenset({1, 2}))

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
        with pytest.raises(SearchError):
            bic_score(data * 1e160, EdgeGraph(("a", "b"), frozenset({("a", "b")})))


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
        start = frozenset((nodes.index(a), nodes.index(b)) for a, b in oracle.best.directed)
        edges, _ = _climb(_BicScorer(data), SearchConfig(), start)
        assert _dag(nodes, edges) == oracle.best

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
            expected = []
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
                        expected.append((op, u, v))
            children, parents = _state_from_edges(p, edges)
            assert _legal_moves(children, parents, p, max_parents) == expected

    def test_max_parents_respected(self):
        rng = np.random.default_rng(9)
        cause = rng.normal(0.0, 1.0, (800, 4))
        target = cause.sum(axis=1) + 0.3 * rng.normal(0.0, 1.0, 800)
        data = np.column_stack([cause, target])
        dag = hill_climb(data, config=SearchConfig(max_parents=2))
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
        scorer, config = _BicScorer(data), SearchConfig()
        start = frozenset((names.index(a), names.index(b)) for a, b in trap_edges)
        climbed, _ = _climb(scorer, config, start)
        escaped, _ = _greedy_climb(scorer, config, climbed, config.tabu_max_stalls)
        for edges in (climbed, escaped):
            found = _dag(names, edges)
            assert found.directed == collider
            assert bic_score(data, found) == pytest.approx(oracle.best_score, abs=1e-9)


def _reference_strict_climb(scorer, config, edges0):
    """Strict best-improvement ascent with a move loop of its own, as it was
    before tabu search shared the loop: (edges, accumulated score)."""
    children, parents = _state_from_edges(scorer.p, edges0)
    score = scorer.total(parents)
    while True:
        best_move, best_delta = None, _EPS_GAIN
        for move in _legal_moves(children, parents, scorer.p, config.max_parents):
            delta = _move_delta(scorer, parents, move)
            if _beats(delta, best_delta):
                best_move, best_delta = move, delta
        if best_move is None:
            return _edges_of(children), score
        _apply_move(children, parents, best_move)
        score += best_delta


def _reference_tabu_walk(scorer, config, best_edges, best_score):
    """Tabu search's former loop from the hill-climb result: one scan for an
    improving move and, on a stall step, a second scan for the stall move."""
    children, parents = _state_from_edges(scorer.p, best_edges)
    score = best_score
    tabu = deque(maxlen=config.tabu_length)
    stalls = 0
    while True:
        moves = _legal_moves(children, parents, scorer.p, config.max_parents)
        chosen, chosen_delta = None, _EPS_GAIN
        for move in moves:
            delta = _move_delta(scorer, parents, move)
            if not _beats(delta, chosen_delta):
                continue
            if move in tabu and score + delta <= best_score + _EPS_GAIN:
                continue
            chosen, chosen_delta = move, delta
        if chosen is None:
            if stalls >= config.tabu_max_stalls:
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
        tabu.append(_inverse_move(chosen))
        if score > best_score + _EPS_GAIN:
            best_edges, best_score = _edges_of(children), score
            stalls = 0
    return best_edges, best_score


_MOVE_LOOP_CONFIGS = [
    SearchConfig(),
    SearchConfig(max_parents=2, tabu_length=3, tabu_max_stalls=30),
]


class TestMoveLoopAgainstReferences:
    """The one move loop gives hill-climb's and tabu search's former results."""

    @staticmethod
    def check(data, config):
        # a scorer keeps its climb, so each climb gets a scorer of its own
        with mock.patch.object(structure_search, "_greedy_climb", _reference_strict_climb):
            ref_hc = _climb(_BicScorer(data), config, frozenset())
        scorer = _BicScorer(data)
        hc = _climb(scorer, config, frozenset())
        assert hc[0] == ref_hc[0]
        assert hc[1] == pytest.approx(ref_hc[1], abs=1e-9)
        ref_tabu = _reference_tabu_walk(scorer, config, *ref_hc)
        tabu = _greedy_climb(scorer, config, hc[0], config.tabu_max_stalls)
        assert tabu[0] == ref_tabu[0]
        assert tabu[1] == pytest.approx(ref_tabu[1], abs=1e-9)
        return hc[0], tabu[0]

    @pytest.mark.parametrize("config", _MOVE_LOOP_CONFIGS, ids=["default", "short-tabu"])
    def test_random_linear_sems(self, config):
        for seed in range(200):
            data, _ = sem_data(seed, n=300, p=3 + seed % 5)
            self.check(data, config)

    @pytest.mark.parametrize("config", _MOVE_LOOP_CONFIGS, ids=["default", "short-tabu"])
    @pytest.mark.parametrize("names", [STRUCTURE_NAMES, PARAMETER_NAMES], ids=["8", "10"])
    def test_sem_cohort_designs(self, config, names):
        for seed in range(4):
            table, _ = sem_cohort(100, seed=seed)
            for position in Position:
                data = table.matrix(position, names)
                hc, tabu = self.check(data, config)
                # the public searches are these two loops
                assert hill_climb(data, config).directed == {(f"x{u}", f"x{v}") for u, v in hc}
                assert tabu_search(data, config).directed == {
                    (f"x{u}", f"x{v}") for u, v in tabu
                }


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
                            expected = [] if method == "hc" else [(SearchConfig().tabu_max_stalls,)]
                            assert [c.args[3:] for c in climb.call_args_list] == expected
                # each (node, parents) key is factored on its first use only
                assert factor.call_count == sum(1 for _, parents in scorer._cache if parents)


class TestFges:
    def test_semi_directed_paths_follow_arrows(self):
        # 3 -> 0 -> 1 - 2
        step = adjacency(range(4), {(3, 0), (0, 1)}, {frozenset((1, 2))}, one_way=True)
        assert _semi_directed_reaches(3, 2, set(), step)
        assert _semi_directed_reaches(2, 1, set(), step)
        assert not _semi_directed_reaches(2, 0, set(), step)
        assert not _semi_directed_reaches(3, 2, {0}, step)

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


def _former_fges(data, config=None, *, names=None):
    """fges as it was: after each operator a Dor-Tarsi consistent extension
    and the former completion of that DAG, with candidates sorted by score
    and the next one tried when a PDAG has no extension.  Returns the graph
    and the number of such retries."""
    config = config or SearchConfig()
    scorer = _BicScorer(data)
    p = scorer.p
    names = _node_names(names, p)
    directed, undirected = set(), set()
    retries = 0

    def neighbours():
        parents = _state_from_edges(p, directed)[1]
        return adjacency(range(p), directed, undirected), adjacency(range(p), (), undirected), parents

    def forward_candidates():
        adj, und, parents = neighbours()
        step = adjacency(range(p), directed, undirected, one_way=True)
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
                        if len(new) > config.max_parents or not _is_clique(block, adj):
                            continue
                        if _semi_directed_reaches(y, x, block, step):
                            continue
                        delta = scorer.local(y, frozenset(new)) - scorer.local(y, base)
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
                        if not _is_clique(rest, adj):
                            continue
                        base = frozenset((rest | parents[y]) - {x})
                        delta = scorer.local(y, base) - scorer.local(y, frozenset(base | {x}))
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


_FGES_CONFIGS = [SearchConfig(), SearchConfig(max_parents=2)]


class TestFgesAgainstFormerRebuild:
    """One pattern completion per operator gives the former rebuild's output,
    and the former rebuild never needed its retry."""

    @staticmethod
    def check(data, config):
        ref, retries = _former_fges(data, config)
        got = fges(data, config)
        assert got.directed == ref.directed
        assert got.undirected == ref.undirected
        assert retries == 0

    @pytest.mark.parametrize("config", _FGES_CONFIGS, ids=["default", "max-parents-2"])
    def test_random_linear_sems(self, config):
        for seed in range(600):
            data, _ = sem_data(seed, n=300, p=3 + seed % 6)
            self.check(data, config)

    def test_exact_ties_go_to_the_first_candidate(self):
        # columns that are permutations or copies of one small-integer column
        # have exactly equal scatter entries, so many operators tie exactly
        for seed in range(200):
            rng = np.random.default_rng(seed)
            base = rng.integers(-3, 4, 24)
            cols = [rng.permutation(base) if rng.random() < 0.5 else base for _ in range(3 + seed % 3)]
            self.check(np.column_stack(cols).astype(float), SearchConfig())

    @pytest.mark.parametrize("config", _FGES_CONFIGS, ids=["default", "max-parents-2"])
    @pytest.mark.parametrize("names", [STRUCTURE_NAMES, PARAMETER_NAMES], ids=["8", "10"])
    @pytest.mark.parametrize("n", [30, 60, 100, 1000])
    def test_sem_cohort_designs(self, n, names, config):
        for seed in range(10):
            table, _ = sem_cohort(n, seed=seed)
            for position in Position:
                self.check(table.matrix(position, names), config)


class TestEnumerateBestDag:
    def test_known_dag_counts(self):
        rng = np.random.default_rng(12)
        for p, expected in ((2, 3), (3, 25), (4, 543), (5, 29281)):
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
        data, _ = sem_data(3, n=800)
        cfg = SearchConfig()
        assert hill_climb(data, cfg).to_dot() == hill_climb(data, cfg).to_dot()
        assert tabu_search(data, cfg).to_dot() == tabu_search(data, cfg).to_dot()
        assert fges(data, cfg).to_dot() == fges(data, cfg).to_dot()

    def test_outputs_are_valid_graphs(self):
        for seed in range(8):
            data, _ = sem_data(seed, n=600, p=4 + seed % 3)
            hill_climb(data).require_dag()  # GraphError on a cycle or an undirected edge
            cp = fges(data)
            # a completed pattern: a fixpoint of the completion, and the
            # class of a member DAG found by brute force
            assert EdgeGraph(cp.nodes, *_complete_pattern(cp.nodes, cp.directed, cp.undirected)) == cp
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
        fit = _gcv_fit(*inputs, n)
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
        lam = _gcv_fit(*inputs, n).lam
        full_rss, full_edf = dense_fit(lam)
        expected = []
        for u in preds:
            rss, edf = _dense_smoother(z, v, [w for w in preds if w != u])[1](lam)
            df1, df2 = full_edf - edf, n - full_edf
            expected.append((df1, df2, (rss - full_rss) / df1 / (full_rss / df2)))
        with mock.patch.object(structure_search, "fdtrc", wraps=structure_search.fdtrc) as sf:
            _prune_node(lambda v, parents: _dense_smoother(z, v, parents)[0], v, preds, n, 0.001)
        assert [call.args for call in sf.call_args_list] == [
            pytest.approx(e, rel=1e-6) for e in expected
        ]

    def test_one_eigendecomposition_per_sweep(self):
        inputs, _ = _dense_smoother(_standardized(0, Position.SUPINE), 0, [1, 2])
        with mock.patch.object(
            structure_search.sla, "eigh", wraps=structure_search.sla.eigh
        ) as eigh:
            _gcv_fit(*inputs, 100)
        assert eigh.call_count == 1

    def test_no_valid_penalty_is_an_error(self):
        # a Gram matrix that is not positive definite at any penalty
        with pytest.raises(SearchError, match="no valid penalty value"):
            _gcv_fit(-np.eye(3), np.zeros(3), 0.0, np.zeros((3, 3)), 10)


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
            association, "_loo_kernel", wraps=association._loo_kernel
        ) as kernel:
            gc_graph(table, Position.SUPINE)
        assert kernel.call_count == len(PARAMETER_NAMES)


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
