"""Tests for the edge graph as DAG, CPDAG and gc edge set, equivalence
completion, and extension."""

from itertools import combinations, product

import pytest

from cardiocausal.graphs import (
    EdgeGraph,
    GraphError,
    _meek_closure,
    adjacency,
    consistent_extension,
    cpdag_of,
    topological_sort,
)

NODES3 = ("x", "y", "z")


def all_dags_3() -> list[EdgeGraph]:
    """All 25 DAGs on three labelled nodes."""
    pairs = [("x", "y"), ("x", "z"), ("y", "z")]
    dags = []
    for states in product((0, 1, 2), repeat=3):
        edges = set()
        for (a, b), s in zip(pairs, states):
            if s == 1:
                edges.add((a, b))
            elif s == 2:
                edges.add((b, a))
        try:
            dags.append(EdgeGraph(NODES3, frozenset(edges)).require_dag())
        except GraphError:
            pass
    return dags


def skeleton_of(dag: EdgeGraph) -> frozenset:
    return frozenset(frozenset(e) for e in dag.directed)


def vstructs_of(dag: EdgeGraph) -> frozenset:
    """Canonical (parent, collider, parent) triples with nonadjacent parents."""
    adj = {v: set() for v in dag.nodes}
    for a, b in dag.directed:
        adj[a].add(b)
        adj[b].add(a)
    out = set()
    for v in dag.nodes:
        for p, q in combinations(sorted(dag.parents(v)), 2):
            if q not in adj[p]:
                out.add((p, v, q))
    return frozenset(out)


def random_dag(rng, n_nodes: int) -> EdgeGraph:
    nodes = tuple(f"v{i}" for i in range(n_nodes))
    order = list(rng.permutation(n_nodes))
    edges = set()
    for i, j in combinations(range(n_nodes), 2):
        if rng.random() < 0.4:
            a, b = (order[i], order[j])
            edges.add((nodes[a], nodes[b]))
    return EdgeGraph(nodes, frozenset(edges))


class TestAdjacency:
    def test_both_edge_kinds_join_both_ends(self):
        adj = adjacency(("a", "b", "c", "d"), {("a", "b")}, {frozenset(("b", "c"))})
        assert adj == {"a": {"b"}, "b": {"a", "c"}, "c": {"b"}, "d": set()}

    def test_one_way_lists_a_directed_edge_under_its_tail(self):
        adj = adjacency(("a", "b", "c"), {("a", "b")}, {frozenset(("b", "c"))}, one_way=True)
        assert adj == {"a": {"b"}, "b": {"c"}, "c": {"b"}}


class TestTopologicalSort:
    def test_chain(self):
        assert topological_sort(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")})) == [
            "a",
            "b",
            "c",
        ]

    def test_tie_break_follows_node_order(self):
        assert topological_sort(("c", "b", "a"), frozenset()) == ["c", "b", "a"]

    def test_cycle_rejected(self):
        with pytest.raises(GraphError):
            topological_sort(("a", "b"), frozenset({("a", "b"), ("b", "a")}))


class TestDag:
    def test_validation(self):
        with pytest.raises(GraphError):
            EdgeGraph(("a",), frozenset({("a", "a")}))
        with pytest.raises(GraphError):
            EdgeGraph(("a", "b"), frozenset({("a", "q")}))
        with pytest.raises(GraphError):
            EdgeGraph(("a", "a"), frozenset())
        cycle = EdgeGraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "c"), ("c", "a")}))
        with pytest.raises(GraphError):
            cycle.require_dag()
        with pytest.raises(GraphError):
            EdgeGraph(("a", "b"), frozenset(), frozenset({frozenset(("a", "b"))})).require_dag()
        dag = EdgeGraph(("a", "b", "c"), frozenset({("a", "b"), ("b", "c")}))
        assert dag.require_dag() is dag

    def test_parents(self):
        d = EdgeGraph(("a", "b", "c"), frozenset({("a", "c"), ("b", "c")}))
        assert d.parents("c") == {"a", "b"}
        assert d.parents("a") == frozenset()

    def test_dot_format(self):
        d = EdgeGraph(("x", "y"), frozenset({("x", "y")}))
        assert d.to_dot("dag") == 'digraph dag {\n  "x";\n  "y";\n  "x" -> "y";\n}\n'

    def test_sorted_edges_deterministic(self):
        d = EdgeGraph(("b", "a", "c"), frozenset({("a", "c"), ("b", "c"), ("b", "a")}))
        assert d.sorted_directed() == [("b", "a"), ("b", "c"), ("a", "c")]


class TestCpdag:
    def test_validation(self):
        with pytest.raises(GraphError):
            EdgeGraph(("a", "b"), frozenset({("a", "b")}), frozenset({frozenset(("a", "b"))}))
        with pytest.raises(GraphError):
            EdgeGraph(("a", "b"), frozenset({("a", "a")}))
        with pytest.raises(GraphError):
            EdgeGraph(("a", "b"), frozenset(), frozenset({frozenset(("a", "q"))}))

    def test_skeleton_merges_both_kinds(self):
        c = EdgeGraph(
            ("a", "b", "c"),
            frozenset({("a", "b")}),
            frozenset({frozenset(("b", "c"))}),
        )
        assert c.skeleton() == frozenset(
            {frozenset(("a", "b")), frozenset(("b", "c"))}
        )

    def test_dot_marks_undirected_edges(self):
        c = EdgeGraph(
            ("x", "y", "z"),
            frozenset({("x", "y")}),
            frozenset({frozenset(("y", "z"))}),
        )
        assert c.to_dot("cpdag") == (
            'digraph cpdag {\n  "x";\n  "y";\n  "z";\n'
            '  "x" -> "y";\n  "y" -> "z" [dir=none];\n}\n'
        )


class TestCpdagOf:
    def test_chain_becomes_undirected(self):
        c = cpdag_of(EdgeGraph(NODES3, frozenset({("x", "y"), ("y", "z")})))
        assert c.directed == frozenset()
        assert c.undirected == frozenset(
            {frozenset(("x", "y")), frozenset(("y", "z"))}
        )

    def test_collider_stays_directed(self):
        c = cpdag_of(EdgeGraph(NODES3, frozenset({("x", "y"), ("z", "y")})))
        assert c.directed == frozenset({("x", "y"), ("z", "y")})
        assert c.undirected == frozenset()

    def test_collider_with_tail_out_of_parent(self):
        # z -> w reversed to w -> z creates only the chain w -> z -> y, no
        # new v-structure, so the class leaves z - w undirected
        d = EdgeGraph(("x", "y", "z", "w"), frozenset({("x", "y"), ("z", "y"), ("z", "w")}))
        c = cpdag_of(d)
        assert c.directed == frozenset({("x", "y"), ("z", "y")})
        assert c.undirected == frozenset({frozenset(("z", "w"))})

    def test_collider_with_tail_out_of_collider_uses_rule_one(self):
        # w - y reversed to w -> y would add the v-structure x -> y <- w,
        # so orientation propagates: y -> w stays directed
        d = EdgeGraph(("x", "y", "z", "w"), frozenset({("x", "y"), ("z", "y"), ("y", "w")}))
        c = cpdag_of(d)
        assert c.directed == frozenset({("x", "y"), ("z", "y"), ("y", "w")})
        assert c.undirected == frozenset()

    def test_rule_two_transitive_closure(self):
        # x -> z <- y is a v-structure; rule 1 orients z -> w (y not
        # adjacent to w), then rule 2 orients x -> w along x -> z -> w
        d = EdgeGraph(
            ("x", "y", "z", "w"),
            frozenset({("x", "z"), ("y", "z"), ("z", "w"), ("x", "w")}),
        )
        c = cpdag_of(d)
        assert c.directed == frozenset(
            {("x", "z"), ("y", "z"), ("z", "w"), ("x", "w")}
        )
        assert c.undirected == frozenset()

    def test_rule_three_diamond(self):
        # a1 -> c <- a2 with b undirected-adjacent to a1, a2 and c: any
        # orientation with c -> b would force a new v-structure, so b -> c
        d = EdgeGraph(
            ("b", "a1", "a2", "c"),
            frozenset({("a1", "c"), ("a2", "c"), ("b", "a1"), ("b", "a2"), ("b", "c")}),
        )
        c = cpdag_of(d)
        assert c.directed == frozenset({("a1", "c"), ("a2", "c"), ("b", "c")})
        assert c.undirected == frozenset(
            {frozenset(("b", "a1")), frozenset(("b", "a2"))}
        )

    def test_matches_verma_pearl_equivalence_on_all_3_node_dags(self):
        dags = all_dags_3()
        assert len(dags) == 25
        cpdags = [cpdag_of(d) for d in dags]
        for i, j in combinations(range(25), 2):
            same_class = skeleton_of(dags[i]) == skeleton_of(dags[j]) and vstructs_of(
                dags[i]
            ) == vstructs_of(dags[j])
            assert (cpdags[i] == cpdags[j]) == same_class

    def test_skeleton_and_vstructures_preserved(self):
        import numpy as np

        rng = np.random.default_rng(0)
        for _ in range(100):
            d = random_dag(rng, int(rng.integers(2, 6)))
            c = cpdag_of(d)
            assert c.skeleton() == skeleton_of(d)
            for p, v, q in vstructs_of(d):
                assert (p, v) in c.directed and (q, v) in c.directed


class TestMeekRuleFour:
    def test_rule_four_with_background_orientations(self):
        # d -> a -> c with b adjacent to d and c nonadjacent to d: b - c
        # must orient b -> c; this input is not reachable from cpdag_of
        # (rules 1-3 are complete for patterns), so the closure is called
        # directly as fges does with operator-induced orientations
        nodes = ("a", "b", "c", "d")
        directed = {("d", "a"), ("a", "c")}
        undirected = {frozenset(("b", "c")), frozenset(("b", "d"))}
        out_dir, out_und = _meek_closure(nodes, set(directed), set(undirected))
        assert ("b", "c") in out_dir
        assert frozenset(("b", "d")) in out_und


class TestConsistentExtension:
    def test_collider_class_has_unique_member(self):
        d = EdgeGraph(NODES3, frozenset({("x", "y"), ("z", "y")}))
        c = cpdag_of(d)
        ext = consistent_extension(c.nodes, c.directed, c.undirected)
        assert ext == d

    def test_chain_extension_avoids_new_collider(self):
        c = cpdag_of(EdgeGraph(NODES3, frozenset({("x", "y"), ("y", "z")})))
        ext = consistent_extension(c.nodes, c.directed, c.undirected)
        assert ext is not None
        assert vstructs_of(ext) == frozenset()
        assert cpdag_of(ext) == c

    def test_chordless_square_has_no_extension(self):
        nodes = ("a", "b", "c", "d")
        square = frozenset(
            frozenset(p) for p in [("a", "b"), ("b", "c"), ("c", "d"), ("d", "a")]
        )
        assert consistent_extension(nodes, frozenset(), square) is None

    def test_directed_cycle_has_no_extension(self):
        nodes = ("a", "b")
        assert consistent_extension(nodes, frozenset({("a", "b"), ("b", "a")}), frozenset()) is None

    def test_extension_reproduces_class_on_random_dags(self):
        import numpy as np

        rng = np.random.default_rng(1)
        for _ in range(100):
            d = random_dag(rng, int(rng.integers(2, 6)))
            c = cpdag_of(d)
            ext = consistent_extension(c.nodes, c.directed, c.undirected)
            assert ext is not None
            assert cpdag_of(ext) == c
