"""Graphs of directed and undirected edges over named parameter nodes.

Every structure method returns one ``EdgeGraph``: gc's pairwise directed
edges (cycles allowed), the DAGs of hc, tabu and cam, and fges's CPDAG, the
completed partially directed representative of a Markov equivalence class,
whose directed edges are shared by every member of the class and whose
undirected edges are those the class leaves open.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

Edge = tuple[str, str]


class GraphError(ValueError):
    """Malformed graph structure: self-loop, cycle, or unknown endpoint."""


def adjacency(nodes, directed=(), undirected=(), *, one_way: bool = False) -> dict:
    """Neighbour set of each node in ``nodes``.

    An undirected edge joins both of its ends; so does a directed edge
    a -> b, unless ``one_way``, when only b is listed under a.
    """
    adj = {v: set() for v in nodes}
    for a, b in directed:
        adj[a].add(b)
        if not one_way:
            adj[b].add(a)
    for pair in undirected:
        a, b = tuple(pair)
        adj[a].add(b)
        adj[b].add(a)
    return adj


def topological_sort(nodes: tuple[str, ...], edges: frozenset[Edge]) -> list[str]:
    """Kahn's algorithm; raises GraphError when the edge set has a cycle.

    Ties are broken by node order in ``nodes`` so the result is deterministic.
    """
    in_deg = {v: 0 for v in nodes}
    for _, b in edges:
        in_deg[b] += 1
    children = adjacency(nodes, edges, one_way=True)
    order = []
    ready = [v for v in nodes if in_deg[v] == 0]
    while ready:
        v = ready.pop(0)
        order.append(v)
        next_ready = []
        for c in sorted(children[v], key=nodes.index):
            in_deg[c] -= 1
            if in_deg[c] == 0:
                next_ready.append(c)
        ready = sorted(set(ready) | set(next_ready), key=nodes.index)
    if len(order) != len(nodes):
        raise GraphError("edge set contains a cycle")
    return order


@dataclass(frozen=True)
class EdgeGraph:
    """Directed plus undirected edges; directed cycles are allowed until
    ``require_dag`` is called."""

    nodes: tuple[str, ...]
    directed: frozenset[Edge]
    undirected: frozenset[frozenset[str]] = frozenset()

    def __post_init__(self):
        object.__setattr__(self, "nodes", tuple(self.nodes))
        object.__setattr__(self, "directed", frozenset(self.directed))
        object.__setattr__(self, "undirected", frozenset(frozenset(e) for e in self.undirected))
        node_set = set(self.nodes)
        if len(node_set) != len(self.nodes):
            raise GraphError("duplicate node names")
        for a, b in self.directed:
            if a == b:
                raise GraphError(f"self-loop on {a!r}")
            if a not in node_set or b not in node_set:
                raise GraphError(f"edge ({a!r}, {b!r}) references unknown node")
        dir_skel = {frozenset(e) for e in self.directed}
        for pair in self.undirected:
            if len(pair) != 2 or not pair <= node_set:
                raise GraphError(f"bad undirected edge {set(pair)!r}")
            if pair in dir_skel:
                raise GraphError(f"edge {set(pair)!r} both directed and undirected")

    def require_dag(self) -> EdgeGraph:
        """Return the graph itself; GraphError unless it is a DAG, that is,
        it has no undirected edge and no directed cycle."""
        if self.undirected:
            raise GraphError("a DAG has no undirected edges")
        topological_sort(self.nodes, self.directed)  # raises on cycle
        return self

    def parents(self, node: str) -> frozenset[str]:
        return frozenset(a for a, b in self.directed if b == node)

    def skeleton(self) -> frozenset[frozenset[str]]:
        return frozenset(frozenset(e) for e in self.directed) | self.undirected

    def sorted_directed(self) -> list[Edge]:
        idx = {v: i for i, v in enumerate(self.nodes)}
        return sorted(self.directed, key=lambda e: (idx[e[0]], idx[e[1]]))

    def sorted_undirected(self) -> list[Edge]:
        idx = {v: i for i, v in enumerate(self.nodes)}
        pairs = [tuple(sorted(p, key=idx.__getitem__)) for p in self.undirected]
        return sorted(pairs, key=lambda e: (idx[e[0]], idx[e[1]]))

    def to_dot(self, name: str = "edges") -> str:
        lines = [f"digraph {name} {{"]
        for v in self.nodes:
            lines.append(f'  "{v}";')
        for a, b in self.sorted_directed():
            lines.append(f'  "{a}" -> "{b}";')
        for a, b in self.sorted_undirected():
            lines.append(f'  "{a}" -> "{b}" [dir=none];')
        lines.append("}")
        return "\n".join(lines) + "\n"

    def payload(self) -> dict[str, list[list[str]]]:
        """JSON form: sorted edge lists, each undirected pair in sorted order."""
        return {
            "directed": sorted(list(e) for e in self.directed),
            "undirected": sorted(sorted(p) for p in self.undirected),
        }

    def without_pairs(self, pairs: frozenset[frozenset[str]]) -> EdgeGraph:
        """The graph minus every edge, of either kind, that joins a pair in ``pairs``."""
        return EdgeGraph(
            self.nodes,
            frozenset(e for e in self.directed if frozenset(e) not in pairs),
            frozenset(p for p in self.undirected if p not in pairs),
        )


def _meek_closure(
    nodes: tuple[str, ...],
    directed: set[Edge],
    undirected: set[frozenset[str]],
) -> tuple[set[Edge], set[frozenset[str]]]:
    """Apply Meek orientation rules R1-R3 until a fixpoint is reached."""
    adj = adjacency(nodes, directed, undirected)

    def forced(b, c) -> bool:
        """Whether R1, R2 or R3 orients the undirected edge b - c as b -> c."""
        into_c = [a for a in nodes if (a, c) in directed and frozenset((b, a)) in undirected]
        return (
            # R1: a -> b, a and c not adjacent
            any((a, b) in directed and c not in adj[a] for a in nodes)
            # R2: b -> a -> c
            or any((b, a) in directed and (a, c) in directed for a in nodes)
            # R3: b - a1 -> c, b - a2 -> c, a1 and a2 not adjacent
            or any(a2 not in adj[a1] for a1, a2 in combinations(into_c, 2))
        )

    changed = True
    while changed:
        changed = False
        for pair in sorted(undirected, key=lambda p: tuple(sorted(p))):
            if pair not in undirected:
                continue
            x, y = tuple(sorted(pair))
            for b, c in ((x, y), (y, x)):
                if forced(b, c):
                    undirected.discard(pair)
                    directed.add((b, c))
                    changed = True
                    break
    return directed, undirected


def _complete_pattern(nodes, directed, undirected) -> tuple[set[Edge], set[frozenset[str]]]:
    """The completed pattern of a PDAG's Markov equivalence class.

    The edges of unshielded colliders (a -> c <- b, a and b not adjacent)
    stay directed, every other edge becomes undirected, and rules R1-R3
    orient the rest; they are complete for a pattern (Meek, UAI 1995).
    """
    adj = adjacency(nodes, directed, undirected)
    parents = adjacency(nodes, {(b, a) for a, b in directed}, one_way=True)
    colliders: set[Edge] = set()
    for v in nodes:
        for p, q in combinations(parents[v], 2):
            if q not in adj[p]:
                colliders.update(((p, v), (q, v)))
    loose = {frozenset(e) for e in directed if e not in colliders} | set(undirected)
    return _meek_closure(nodes, colliders, loose)


def cpdag_of(dag: EdgeGraph) -> EdgeGraph:
    """Equivalence-class completion: skeleton, v-structures, Meek closure.

    Idempotent in the sense that the result is a Meek fixpoint.  ``dag``
    must be a DAG (GraphError otherwise).
    """
    dag.require_dag()
    directed, undirected = _complete_pattern(dag.nodes, dag.directed, ())
    return EdgeGraph(dag.nodes, frozenset(directed), frozenset(undirected))
