"""Tests for the edge graph as DAG, CPDAG and gc edge set, and equivalence
completion."""

from itertools import combinations, product

import pytest

from cardiocausal.graphs import (
    EdgeGraph,
    GraphError,
    _complete_pattern,
    adjacency,
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


def random_dag(rng, n_nodes: int, density: float = 0.4) -> EdgeGraph:
    nodes = tuple(f"v{i}" for i in range(n_nodes))
    order = list(rng.permutation(n_nodes))
    edges = set()
    for i, j in combinations(range(n_nodes), 2):
        if rng.random() < density:
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


def _former_meek_closure(nodes, directed, undirected):
    """The former closure: Meek's rules R1-R4, each its own branch."""
    adj = adjacency(nodes, directed, undirected)

    def orient(a, b):
        undirected.discard(frozenset((a, b)))
        directed.add((a, b))

    changed = True
    while changed:
        changed = False
        for pair in sorted(undirected, key=lambda p: tuple(sorted(p))):
            if pair not in undirected:
                continue
            x, y = tuple(sorted(pair))
            for b, c in ((x, y), (y, x)):
                if any((a, b) in directed and c not in adj[a] for a in nodes):
                    orient(b, c)
                    changed = True
                    break
                if any((b, a) in directed and (a, c) in directed for a in nodes):
                    orient(b, c)
                    changed = True
                    break
                into_c = [a for a in nodes if (a, c) in directed and frozenset((b, a)) in undirected]
                if any(a2 not in adj[a1] for a1, a2 in combinations(into_c, 2)):
                    orient(b, c)
                    changed = True
                    break
                # R4: b - d (adjacent), d -> a, a -> c, d and c not adjacent
                fired = False
                for a in nodes:
                    if (a, c) not in directed:
                        continue
                    for d in adj[b]:
                        if (d, a) in directed and c not in adj[d]:
                            orient(b, c)
                            changed = True
                            fired = True
                            break
                    if fired:
                        break
                if fired:
                    break
    return directed, undirected


def former_cpdag_of(dag: EdgeGraph) -> EdgeGraph:
    """The former completion of a DAG: its v-structures, then R1-R4."""
    dag.require_dag()
    adj = adjacency(dag.nodes, dag.directed)
    directed = set()
    for v in dag.nodes:
        for p, q in combinations(sorted(dag.parents(v)), 2):
            if q not in adj[p]:
                directed.update(((p, v), (q, v)))
    undirected = {frozenset(e) for e in dag.directed if e not in directed}
    directed, undirected = _former_meek_closure(dag.nodes, directed, undirected)
    return EdgeGraph(dag.nodes, frozenset(directed), frozenset(undirected))


def former_consistent_extension(nodes, directed, undirected):
    """Dor-Tarsi sink elimination: a DAG that keeps a PDAG's directed edges
    and v-structures, or None when there is none."""
    adj = adjacency(nodes, directed, undirected)
    und = adjacency(nodes, (), undirected)
    children = adjacency(nodes, directed, one_way=True)
    remaining = set(nodes)
    result = set(directed)
    while remaining:
        sink = None
        for x in sorted(remaining):
            if not children[x] and all(
                all(u == w or w in adj[u] for w in adj[x]) for u in und[x]
            ):
                sink = x
                break
        if sink is None:
            return None
        result.update((other, sink) for other in und[sink])
        for v in adj[sink]:
            for table in (adj, und, children):
                table[v].discard(sink)
        remaining.discard(sink)
    return EdgeGraph(nodes, frozenset(result)).require_dag()


def _partly_unoriented(rng, dag: EdgeGraph) -> tuple[frozenset, frozenset]:
    """A PDAG with ``dag`` as an extension: each edge outside a v-structure
    is left undirected with probability one half."""
    kept = {(p, v) for p, v, _ in vstructs_of(dag)} | {(q, v) for _, v, q in vstructs_of(dag)}
    loose = {e for e in dag.sorted_directed() if e not in kept and rng.random() < 0.5}
    return dag.directed - loose, frozenset(frozenset(e) for e in loose)


class TestCompletePattern:
    """One completion routine gives the former v-structures + R1-R4 result."""

    def test_cpdag_of_matches_the_former_completion_on_random_dags(self):
        import numpy as np

        rng = np.random.default_rng(2)
        for i in range(3000):
            d = random_dag(rng, 2 + i % 8, density=(0.2, 0.4, 0.6, 0.8)[i % 4])
            assert cpdag_of(d) == former_cpdag_of(d)

    def test_pdags_with_an_extension_complete_to_its_class(self):
        import numpy as np

        rng = np.random.default_rng(3)
        for i in range(500):
            d = random_dag(rng, 2 + i % 8, density=(0.3, 0.5, 0.7)[i % 3])
            directed, undirected = _partly_unoriented(rng, d)
            ext = former_consistent_extension(d.nodes, directed, undirected)
            assert ext is not None
            out = _complete_pattern(d.nodes, directed, undirected)
            assert EdgeGraph(d.nodes, *out) == former_cpdag_of(ext) == cpdag_of(d)

    def test_completion_is_a_fixpoint(self):
        import numpy as np

        rng = np.random.default_rng(4)
        for i in range(300):
            c = cpdag_of(random_dag(rng, 2 + i % 8, density=0.5))
            assert EdgeGraph(c.nodes, *_complete_pattern(c.nodes, c.directed, c.undirected)) == c

    def test_inputs_are_not_modified(self):
        directed = {("x", "y"), ("z", "y")}
        undirected = {frozenset(("y", "w"))}
        out = _complete_pattern(("x", "y", "z", "w"), directed, undirected)
        assert out == ({("x", "y"), ("z", "y"), ("y", "w")}, set())
        assert directed == {("x", "y"), ("z", "y")}
        assert undirected == {frozenset(("y", "w"))}
